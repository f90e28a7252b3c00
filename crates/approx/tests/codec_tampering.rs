//! The `SBGTSNAP` approx section on snapshots of live BP and particle
//! sessions: the shared tamper harness (`sbgt_lattice::bytes::check`)
//! proves byte-exact round trips, that truncation anywhere and trailing
//! bytes fail closed, and that a flipped byte (including the approx kind
//! byte) is a typed error or a snapshot the restore layer can vet without
//! panicking; cross-backend restores are rejected outright.

use proptest::prelude::*;

use sbgt::SessionSnapshot;
use sbgt_approx::{BpConfig, BpSession, ParticleConfig, ParticleSession};
use sbgt_lattice::{bytes, BigState};
use sbgt_response::BinaryDilutionModel;

fn risks_from_seed(seed: u64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let h = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64 + 1)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            0.01 + (h >> 11) as f64 / (1u64 << 53) as f64 * 0.15
        })
        .collect()
}

fn particle_config(seed: u64) -> ParticleConfig {
    ParticleConfig {
        particles: 16,
        seed,
        ..ParticleConfig::default()
    }
}

/// A session of each backend with a couple of observed pools, so the
/// snapshot exercises history (and, for particles, the cloud block).
fn observed_sessions(
    seed: u64,
    n: usize,
) -> (
    BpSession<BinaryDilutionModel>,
    ParticleSession<BinaryDilutionModel>,
) {
    let risks = risks_from_seed(seed, n);
    let model = BinaryDilutionModel::pcr_like();
    let config = sbgt::SbgtConfig::default();
    let mut bp = BpSession::new(&risks, model, config, BpConfig::default()).unwrap();
    let mut particle = ParticleSession::new(&risks, model, config, particle_config(seed)).unwrap();
    let pools = [
        BigState::from_subjects(0..n / 2),
        BigState::from_subjects(n / 2..n),
    ];
    for (i, pool) in pools.iter().enumerate() {
        bp.observe(pool, i % 2 == 0).unwrap();
        particle.observe(pool, i % 2 == 0).unwrap();
    }
    (bp, particle)
}

/// Both approx snapshot kinds pass the harness, and whatever survives a
/// flip and decodes must hit the restore-side validation walls without
/// panicking (a kind byte flipped to the other backend is caught there).
#[test]
fn approx_snapshots_survive_the_tamper_harness() {
    let model = BinaryDilutionModel::pcr_like();
    let config = sbgt::SbgtConfig::default();
    for (seed, n) in [(1u64, 18usize), (0xC0FFEE, 33)] {
        let (bp, particle) = observed_sessions(seed, n);
        let risks = risks_from_seed(seed, n);
        for (snap, is_bp) in [(bp.snapshot(), true), (particle.snapshot(), false)] {
            let bytes = snap.to_bytes();
            assert_eq!(SessionSnapshot::from_bytes(&bytes).unwrap(), snap);
            bytes::check(&bytes, |tampered| {
                let decoded = SessionSnapshot::from_bytes(tampered)?;
                if is_bp {
                    let _ =
                        BpSession::restore(&decoded, &risks, model, config, BpConfig::default());
                } else {
                    let _ = ParticleSession::restore(
                        &decoded,
                        &risks,
                        model,
                        config,
                        particle_config(seed),
                    );
                }
                Ok::<_, sbgt::SnapshotError>(decoded.to_bytes())
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cross-backend restores are rejected outright: a BP snapshot cannot
    /// rebuild a particle session and vice versa, whatever the payload.
    #[test]
    fn cross_backend_restores_are_rejected(
        seed in proptest::arbitrary::any::<u64>(),
        n in 18usize..=32,
    ) {
        let (bp, particle) = observed_sessions(seed, n);
        let risks = risks_from_seed(seed, n);
        let model = BinaryDilutionModel::pcr_like();
        let config = sbgt::SbgtConfig::default();
        let pcfg = particle_config(seed);
        prop_assert!(ParticleSession::restore(
            &bp.snapshot(), &risks, model, config, pcfg
        ).is_err());
        prop_assert!(BpSession::restore(
            &particle.snapshot(), &risks, model, config, BpConfig::default()
        ).is_err());
        // And both reject an exact (approx-less) snapshot.
        let exact = SessionSnapshot {
            n_subjects: n,
            shards: vec![vec![0.5; 1 << 4]],
            total: 1.0,
            history: vec![],
            stages: 0,
            marginals: vec![],
            pending_selection: None,
            sparse: None,
            approx: None,
        };
        prop_assert!(BpSession::restore(
            &exact, &risks, model, config, BpConfig::default()
        ).is_err());
    }
}
