//! `lattice-n20`: no service, the paper's own regime. Seeded N=20 cohorts
//! driven to classification, in rotation, in the three exact modes — dense
//! on rayon, engine-sharded, and dense with the adaptive sparse switch —
//! where the Θ(2^N) kernels and the engine dominate and per-cohort
//! overhead is negligible.

use std::io;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use sbgt::{RoundStep, SbgtConfig, SbgtSession, SessionOutcome, ShardedSession, SparseSwitch};
use sbgt_bayes::Prior;
use sbgt_engine::SharedEngine;
use sbgt_lattice::{BigState, State};
use sbgt_response::BinaryDilutionModel;
use sbgt_service::{lab_outcome, run_cohort_serial, ApproxBackend, CohortSpec, SessionPolicy};

use crate::host;
use crate::load::{same_bits, score, Mark, Phase, Tally};
use crate::serve::{scaled, Pass, Served, ENGINE_THREADS};
use crate::spans::Spans;
use crate::stats;
use crate::target::quiet_engine;
use crate::traffic::derive_seed;

pub const SUBJECTS: usize = 20;

/// Cohorts at the reference run length. Cohort `i` runs in mode `i % 3`:
/// the modes are exact and spend the same assays on a cohort, so a cohort
/// run three times over would add time and nothing to the quality figures.
const COHORTS: usize = 252;

/// Every `CHECK_EVERY`-th cohort is compared bit for bit with the serial
/// reference. Not a multiple of three, so the checks cycle through the
/// modes; far denser than the serving workloads' one in 64 because a run
/// here has hundreds of cohorts, not tens of thousands.
const CHECK_EVERY: u64 = 8;

/// Partitions of the sharded mode.
pub const PARTS: usize = 4;

/// Subjects of the cohort every set-up warms the three modes on, and its
/// seed: the same cohort whatever the run's seed, so that `setup_s`
/// measures the set-up and not one cohort's luck.
const WARM_SUBJECTS: usize = 18;
const WARM_SEED: u64 = 0x5E7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `SbgtSession`, dense, rayon kernels.
    Dense,
    /// `ShardedSession`, [`PARTS`] partitions on the engine's pool.
    Sharded,
    /// `SbgtSession` with `SparseSwitch::default()`.
    Hybrid,
    /// `SbgtSession` with serial kernels: the plain single-threaded
    /// baseline (traced pass only).
    Serial,
}

pub const EXACT_MODES: [Mode; 3] = [Mode::Dense, Mode::Sharded, Mode::Hybrid];

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Dense => "dense",
            Mode::Sharded => "sharded",
            Mode::Hybrid => "hybrid",
            Mode::Serial => "serial",
        }
    }

    pub fn session_config(self) -> SbgtConfig {
        match self {
            Mode::Dense | Mode::Sharded => SbgtConfig::default(),
            Mode::Hybrid => SbgtConfig::default().with_sparse_switch(SparseSwitch::default()),
            Mode::Serial => SbgtConfig::default().serial(),
        }
    }

    /// The placement policy under which `run_cohort_serial` builds the
    /// same session kind this mode drives directly.
    fn policy(self) -> SessionPolicy {
        SessionPolicy {
            dense_threshold: if self == Mode::Sharded {
                0
            } else {
                SUBJECTS + 1
            },
            parts: PARTS,
            sparse_epsilon: 0.0,
            sparse_threshold: 0,
            approx_threshold: 0,
            approx_backend: ApproxBackend::Bp,
            approx_particles: 0,
            plan_risk_buckets: 0,
        }
    }
}

/// A perfect assay: every planted truth is recovered exactly, so
/// `sensitivity` and `specificity` read 1 on this workload and any other
/// value is a defect, not sampling noise over a few dozen cohorts.
pub fn model() -> BinaryDilutionModel {
    BinaryDilutionModel::perfect()
}

/// Seeded cohorts: heterogeneous risks over 0.005–0.18 and 0 to 3 planted
/// positives. The risk values are an even grid and the positive count
/// cycles — neither is drawn — so the amount of work moves little with
/// the seed; who carries which risk, and who is positive, does.
pub fn cohorts(count: usize, subjects: usize, seed: u64) -> Vec<CohortSpec> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x20));
    (0..count)
        .map(|id| {
            // Every cohort gets the same spread of risks over 0.005–0.18,
            // in a seeded order.
            let mut risks: Vec<f64> = (0..subjects)
                .map(|i| 0.005 + 0.175 * (i as f64 + 0.5) / subjects as f64)
                .collect();
            for i in (1..subjects).rev() {
                risks.swap(i, rng.random_range(0..=i));
            }
            // Plant positives only where the prior leaves the question
            // open: a subject at or below the 1 % negative threshold is
            // classified negative untested, and planting one there would
            // score the prior, not the program.
            let open: Vec<usize> = (0..subjects).filter(|&i| risks[i] > 0.02).collect();
            let mut truth = BigState::empty();
            while (truth.rank() as usize) < (id % 4).min(open.len()) {
                truth.insert(open[rng.random_range(0..open.len())]);
            }
            CohortSpec {
                id: id as u64,
                seed: derive_seed(seed, 0x2000 + id as u64),
                tenant: 0,
                risks,
                truth,
            }
        })
        .collect()
}

/// Drive one cohort to classification in one mode, against the same
/// deterministic lab the service uses.
pub fn classify(engine: &SharedEngine, spec: &CohortSpec, mode: Mode) -> SessionOutcome {
    let model = model();
    let prior = Prior::from_risks(&spec.risks);
    let mut test = 0;
    let mut lab = |pool: State| {
        let outcome = lab_outcome(spec, test, pool, &model);
        test += 1;
        outcome
    };
    match mode {
        Mode::Sharded => {
            let mut session =
                ShardedSession::new(engine, prior, model, mode.session_config(), PARTS);
            loop {
                if let RoundStep::Finished(outcome) = session.run_round(engine, &mut lab) {
                    return outcome;
                }
            }
        }
        Mode::Dense | Mode::Hybrid | Mode::Serial => {
            let mut session = SbgtSession::new(prior, model, mode.session_config());
            loop {
                if let RoundStep::Finished(outcome) = session.run_round(&mut lab) {
                    return outcome;
                }
            }
        }
    }
}

/// What one cohort run in one mode took.
pub struct ModeRun {
    pub mode: Mode,
    pub ms: f64,
}

/// One pass over the cohorts, the three exact modes in rotation.
pub struct LatticeRun {
    pub served: Served,
    pub runs: Vec<ModeRun>,
}

pub fn run(seed: u64, pass: Pass) -> io::Result<LatticeRun> {
    let count = scaled(COHORTS, pass.scale, EXACT_MODES.len(), 1);
    // Set up several times: generate the cohorts, start the engine pool,
    // and warm all three modes (rayon's pool, the allocator) on a small
    // cohort. The last set-up's engine and cohorts are the ones measured.
    let mut setup_times = Vec::new();
    let mut ready = None;
    for _ in 0..pass.setups.max(1) {
        drop(ready.take());
        let began = Instant::now();
        let specs = cohorts(count, SUBJECTS, seed);
        let engine_began = Instant::now();
        let engine = quiet_engine(ENGINE_THREADS);
        let engine_start_s = engine_began.elapsed().as_secs_f64();
        let warm = &cohorts(4, WARM_SUBJECTS, WARM_SEED)[3];
        for mode in EXACT_MODES {
            std::hint::black_box(classify(&engine, warm, mode));
        }
        setup_times.push(began.elapsed().as_secs_f64());
        ready = Some((specs, engine, engine_start_s));
    }
    let (specs, engine, engine_start_s) = ready.expect("at least one set-up ran");

    let mut spans = if pass.trace {
        Spans::on()
    } else {
        Spans::off()
    };
    let mut tally = Tally::default();
    let mut runs = Vec::with_capacity(specs.len());
    let mut progress = Vec::with_capacity(runs.capacity());
    let mut samples = Vec::new();
    let began = Instant::now();
    let cpu_before = host::cpu_seconds(std::process::id());
    let phase_span = spans.enter("phase.run", crate::spans::NO_COHORT);
    for (spec, mode) in specs.iter().zip(EXACT_MODES.into_iter().cycle()) {
        let at = Instant::now();
        let outcome = spans.time(mode_span(mode), spec.id, || classify(&engine, spec, mode));
        runs.push(ModeRun {
            mode,
            ms: at.elapsed().as_secs_f64() * 1e3,
        });
        tally.offered += SUBJECTS as u64;
        tally.classified += SUBJECTS as u64;
        tally.cohorts += 1;
        tally.tests += outcome.tests as u64;
        if !outcome.classification.is_terminal() {
            tally.non_terminal += SUBJECTS as u64;
        }
        score(&mut tally, &spec.truth, &outcome.classification.statuses);
        progress.push(Mark {
            at_s: began.elapsed().as_secs_f64(),
            classified: tally.classified,
        });
        if spec.id.is_multiple_of(CHECK_EVERY) {
            samples.push((spec, mode, outcome));
        }
    }
    spans.exit(phase_span);
    let wall_s = began.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds(std::process::id()) - cpu_before;

    // Every sampled run must equal, bit for bit, what the service's own
    // serial reference computes for that cohort under the same policy.
    let mut violations = Vec::new();
    for (spec, mode, outcome) in &samples {
        let serial =
            run_cohort_serial(&engine, spec, model(), mode.session_config(), mode.policy());
        if !same_bits(outcome, &serial) {
            violations.push(format!(
                "cohort {} ({}) differs from the serial reference",
                spec.id,
                mode.name()
            ));
        }
    }

    let phase = Phase {
        name: "run",
        counts: tally,
        wall_s,
        cpu_s,
        own_cpu_s: cpu_s,
        // One cohort at a time: each is its own seal-to-report time.
        latencies_ms: runs.iter().map(|r| r.ms).collect(),
        lag_ms: Vec::new(),
        calls: runs.len() as u64,
        progress,
    };
    Ok(LatticeRun {
        served: Served {
            setup_s: stats::median_of(&setup_times),
            phases: vec![phase],
            ledger: tally,
            violations,
            checked_cohorts: samples.len(),
            peak_rss_mb: host::peak_rss_mb(std::process::id()),
            spans,
            plan_stats: None,
            handoff: None,
            start_s: engine_start_s,
        },
        runs,
    })
}

pub fn mode_span(mode: Mode) -> &'static str {
    match mode {
        Mode::Dense => "core.cohort.dense",
        Mode::Sharded => "core.cohort.sharded",
        Mode::Hybrid => "core.cohort.hybrid",
        Mode::Serial => "core.cohort.serial",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cohorts_are_seeded_and_stratified() {
        let a = cohorts(8, SUBJECTS, 7);
        assert_eq!(a, cohorts(8, SUBJECTS, 7));
        assert_ne!(a, cohorts(8, SUBJECTS, 8));
        for (i, spec) in a.iter().enumerate() {
            assert_eq!(spec.truth.rank() as usize, i % 4);
            assert!(spec.truth.subjects().all(|s| spec.risks[s] > 0.02));
            assert_eq!(spec.n_subjects(), SUBJECTS);
            assert!(spec.risks.iter().all(|r| (0.005..=0.18).contains(r)));
        }
    }

    #[test]
    fn modes_agree_and_match_the_serial_reference() {
        // Small cohorts keep the test quick; the code path is the same.
        let engine = quiet_engine(2);
        for spec in &cohorts(4, 10, 3) {
            let dense = classify(&engine, spec, Mode::Dense);
            assert!(dense.classification.is_terminal());
            for mode in [Mode::Sharded, Mode::Hybrid, Mode::Serial] {
                let other = classify(&engine, spec, mode);
                assert_eq!(other.classification.statuses, dense.classification.statuses);
            }
            for mode in EXACT_MODES {
                let policy = SessionPolicy {
                    dense_threshold: if mode == Mode::Sharded { 0 } else { 11 },
                    ..mode.policy()
                };
                let serial =
                    run_cohort_serial(&engine, spec, model(), mode.session_config(), policy);
                assert!(
                    same_bits(&classify(&engine, spec, mode), &serial),
                    "{}",
                    mode.name()
                );
            }
        }
    }
}
