//! The generic backend-conformance suite (`sbgt::conformance`) instantiated
//! for the BP and particle backends; the three exact backends run the same
//! suite from `sbgt`'s own tests.

use sbgt::conformance::Harness;
use sbgt::{SbgtConfig, SbgtSession, SessionSnapshot};
use sbgt_approx::{BpConfig, BpSession, ParticleConfig, ParticleSession};
use sbgt_bayes::Prior;
use sbgt_engine::{Engine, EngineConfig};
use sbgt_lattice::BigState;
use sbgt_response::{BinaryDilutionModel, Dilution};

/// 70 subjects: pools span two words, past what any exact backend holds.
fn risks() -> Vec<f64> {
    (0..70).map(|i| 0.02 + 0.01 * (i % 7) as f64).collect()
}

/// Undiluted noisy assay, so pooled negatives stay informative at N = 70.
fn model() -> BinaryDilutionModel {
    BinaryDilutionModel::new(0.99, 0.995, Dilution::None)
}

const POSITIVES: [usize; 2] = [5, 66];

fn truth(pool: &BigState) -> bool {
    BigState::from_subjects(POSITIVES).intersects(pool)
}

fn pool(subjects: &[usize]) -> BigState {
    BigState::from_subjects(subjects.iter().copied())
}

fn pcfg() -> ParticleConfig {
    ParticleConfig {
        particles: 512,
        ..ParticleConfig::default()
    }
}

fn exact_snapshot() -> SessionSnapshot {
    SbgtSession::new(Prior::flat(4, 0.1), model(), SbgtConfig::default()).snapshot()
}

fn bp(config: SbgtConfig) -> BpSession<BinaryDilutionModel> {
    BpSession::new(&risks(), model(), config, BpConfig::default()).unwrap()
}

fn particle(config: SbgtConfig) -> ParticleSession<BinaryDilutionModel> {
    ParticleSession::new(&risks(), model(), config, pcfg()).unwrap()
}

#[test]
fn bp_backend_conforms_on_the_driver_and_on_the_engine() {
    let engine = Engine::new(EngineConfig::default().with_threads(2));
    for ctx in [None, Some(&engine)] {
        Harness {
            open: &|config| bp(config).0,
            restore: &|snapshot, config| {
                BpSession::restore(snapshot, &risks(), model(), config, BpConfig::default())
                    .map(|s| s.0)
            },
            ctx,
            lab: &truth,
            pool: &pool,
            positives: Some(&POSITIVES),
            plan_key: None,
            foreign: vec![exact_snapshot(), particle(SbgtConfig::default()).snapshot()],
        }
        .check();
    }
}

#[test]
fn particle_backend_conforms() {
    Harness {
        open: &|config| particle(config).0,
        restore: &|snapshot, config| {
            ParticleSession::restore(snapshot, &risks(), model(), config, pcfg()).map(|s| s.0)
        },
        ctx: (),
        lab: &truth,
        pool: &pool,
        // The sampled posterior is not held to exact recovery here; the
        // accuracy harness gates its agreement rate.
        positives: None,
        plan_key: None,
        foreign: vec![exact_snapshot(), bp(SbgtConfig::default()).snapshot()],
    }
    .check();
}
