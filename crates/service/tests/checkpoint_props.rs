//! `SBGTCKPT` checkpoints through the restore layer: the shared tamper
//! harness (`sbgt_lattice::bytes::check`) over approx cohorts with
//! multi-word truths and over recorded checkpoints of all five kinds —
//! byte-exact round trips; truncation, trailing bytes and byte flips are
//! typed errors or restore-time rejections, never panics — plus kind-byte
//! rewrites and the recorded parent-commit bytes.

use proptest::prelude::*;

use sbgt::{ApproxKind, ApproxSnapshot, ParticleBlock, RoundStep, SbgtConfig, SessionSnapshot};
use sbgt_engine::{Engine, EngineConfig};
use sbgt_lattice::{bytes, BigState};
use sbgt_response::BinaryDilutionModel;
use sbgt_service::{
    run_cohort_serial, ApproxBackend, CohortActor, CohortCheckpoint, CohortKind, CohortSpec,
    SessionPolicy,
};

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

/// A checkpoint for an approx cohort big enough that its truth spans
/// multiple `u64` words — the regime the v3 header exists for.
fn approx_checkpoint(kind: CohortKind, seed: u64, n: usize) -> CohortCheckpoint {
    assert!((66..=128).contains(&n), "two-word truth regime");
    let history: Vec<(Vec<u32>, bool)> = vec![
        ((0..n as u32 / 2).collect(), false),
        ((n as u32 / 2..n as u32).collect(), true),
    ];
    let particles = match kind {
        CohortKind::Particle => {
            let wpp = n.div_ceil(64);
            Some(ParticleBlock {
                words_per_particle: wpp,
                words: (0..3 * wpp as u64)
                    .map(|i| seed.wrapping_mul(31).wrapping_add(i))
                    .collect(),
                log_weights: vec![-0.5, -1.25, 0.0],
                rng: [seed | 1, 2, 3, 4],
            })
        }
        _ => None,
    };
    CohortCheckpoint {
        spec: CohortSpec {
            id: 7,
            seed,
            tenant: 2,
            risks: risks_from_seed(seed, n),
            truth: BigState::from_subjects([1, 64, n - 1]),
        },
        kind,
        recoveries: 1,
        snapshot: SessionSnapshot {
            n_subjects: n,
            shards: vec![],
            total: 1.0,
            history: vec![],
            stages: 2,
            marginals: vec![],
            pending_selection: None,
            sparse: None,
            approx: Some(ApproxSnapshot {
                kind: match kind {
                    CohortKind::Particle => ApproxKind::Particle,
                    _ => ApproxKind::Bp,
                },
                history,
                particles,
            }),
        },
    }
}

/// Byte offset of the cohort kind in the v3 wire layout: magic, version,
/// id, seed, tenant, risk count + risks, truth word count + words.
fn kind_offset(ckpt: &CohortCheckpoint) -> usize {
    8 + 4 + 8 + 8 + 4 + 8 + ckpt.spec.risks.len() * 8 + 4 + ckpt.spec.truth.words().len() * 8
}

fn policy(backend: ApproxBackend) -> SessionPolicy {
    SessionPolicy {
        dense_threshold: 12,
        parts: 4,
        sparse_epsilon: 0.0,
        sparse_threshold: 0,
        approx_threshold: 17,
        approx_backend: backend,
        approx_particles: 3,
        plan_risk_buckets: 0,
    }
}

/// Decode → restore an actor (which must not panic, whatever decoded) →
/// encode: the harness closure for checkpoints headed for `policy`.
fn reencode_through_restore(
    policy: SessionPolicy,
) -> impl Fn(&[u8]) -> Result<Vec<u8>, sbgt::SnapshotError> {
    move |bytes| {
        let decoded = CohortCheckpoint::from_bytes(bytes)?;
        let _ = CohortActor::restore(
            &decoded,
            BinaryDilutionModel::pcr_like(),
            SbgtConfig::default(),
            policy,
        );
        Ok(decoded.to_bytes())
    }
}

/// Approx-kind checkpoints with two-word truths pass the tamper harness
/// and restore to an actor of the same kind.
#[test]
fn approx_checkpoints_survive_the_tamper_harness() {
    for (kind, backend) in [
        (CohortKind::Bp, ApproxBackend::Bp),
        (CohortKind::Particle, ApproxBackend::Particle),
    ] {
        let ckpt = approx_checkpoint(kind, 0xC0FFEE, 66);
        let bytes = ckpt.to_bytes();
        assert_eq!(CohortCheckpoint::from_bytes(&bytes).unwrap(), ckpt);
        let actor = CohortActor::restore(
            &ckpt,
            BinaryDilutionModel::pcr_like(),
            SbgtConfig::default(),
            policy(backend),
        )
        .unwrap();
        assert_eq!(actor.checkpoint().kind, kind);
        bytes::check(&bytes, reencode_through_restore(policy(backend)));
    }
}

/// The recorded checkpoints of all five kinds — bytes real cohorts froze
/// to — pass the tamper harness through the restore layer.
#[test]
fn recorded_checkpoints_of_every_kind_survive_the_tamper_harness() {
    let restore_policy = SessionPolicy {
        approx_particles: 8,
        ..policy(ApproxBackend::Particle)
    };
    let lines: Vec<_> = include_str!("data/parent_checkpoints.txt")
        .lines()
        .collect();
    assert_eq!(lines.len(), 5);
    for line in lines {
        let (_, hex) = line.split_once(' ').expect("NAME hex");
        let bytes = bytes::from_hex(hex);
        bytes::check(&bytes, reencode_through_restore(restore_policy));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Rewriting the cohort kind byte fails closed: bytes past the known
    /// range are a decode error, and every *valid-but-wrong* kind is caught
    /// at restore time because the embedded snapshot does not match it.
    #[test]
    fn kind_byte_rewrites_are_rejected(
        seed in proptest::arbitrary::any::<u64>(),
        n in 66usize..=120,
        junk in 5u8..=255,
    ) {
        for kind in [CohortKind::Bp, CohortKind::Particle] {
            let ckpt = approx_checkpoint(kind, seed, n);
            let bytes = ckpt.to_bytes();
            let at = kind_offset(&ckpt);
            prop_assert_eq!(bytes[at], kind.to_byte(), "kind offset drifted");

            let mut unknown = bytes.clone();
            unknown[at] = junk;
            let err = CohortCheckpoint::from_bytes(&unknown).unwrap_err();
            prop_assert!(err.to_string().contains("unknown cohort kind"));

            for wrong in [0u8, 1, 2, 3, 4] {
                if wrong == kind.to_byte() {
                    continue;
                }
                let mut flipped = bytes.clone();
                flipped[at] = wrong;
                // The checkpoint header decodes (the kind byte is valid),
                // but no session of the rewritten kind accepts the payload.
                let Ok(decoded) = CohortCheckpoint::from_bytes(&flipped) else {
                    continue;
                };
                for backend in [ApproxBackend::Bp, ApproxBackend::Particle] {
                    prop_assert!(CohortActor::restore(
                        &decoded,
                        BinaryDilutionModel::pcr_like(),
                        SbgtConfig::default(),
                        policy(backend),
                    ).is_err(), "kind {wrong} restored an approx {:?} payload", kind);
                }
            }
        }
    }
}

/// `SBGTCKPT` bytes written by the commit before the round-driver refactor
/// (PR 11, `1eda90e`): one cohort of each kind, frozen after two rounds of
/// the spec and policies below. The refactor may not move a byte of the
/// format or a bit of the arithmetic, so on this commit (a) a cohort driven
/// to the same point freezes to the identical bytes, and (b) the old bytes
/// restore and finish bit-for-bit like an uninterrupted run.
#[test]
fn checkpoints_written_before_the_round_driver_refactor_still_resume() {
    let engine = Engine::new(EngineConfig::default().with_threads(2));
    let model = BinaryDilutionModel::pcr_like();
    let config = SbgtConfig::default();
    let spec = CohortSpec {
        id: 5,
        seed: 0xC0FFEE,
        tenant: 1,
        risks: vec![0.03, 0.07, 0.02, 0.09, 0.05, 0.04],
        truth: BigState::from_subjects([1, 4]),
    };
    let dense = SessionPolicy {
        dense_threshold: 100,
        parts: 2,
        sparse_epsilon: 0.0,
        sparse_threshold: 0,
        approx_threshold: 0,
        approx_backend: ApproxBackend::Bp,
        approx_particles: 8,
        plan_risk_buckets: 0,
    };
    let sharded = SessionPolicy {
        dense_threshold: 0,
        ..dense
    };
    let bp = SessionPolicy {
        approx_threshold: 1,
        ..dense
    };
    let cases = [
        ("DENSE", CohortKind::Dense, dense),
        ("SHARDED", CohortKind::Sharded, sharded),
        (
            "SPARSE",
            CohortKind::Sparse,
            SessionPolicy {
                sparse_epsilon: 1e-9,
                ..sharded
            },
        ),
        ("BP", CohortKind::Bp, bp),
        (
            "PARTICLE",
            CohortKind::Particle,
            SessionPolicy {
                approx_backend: ApproxBackend::Particle,
                ..bp
            },
        ),
    ];
    let recorded = include_str!("data/parent_checkpoints.txt");
    for (name, kind, policy) in cases {
        let hex = recorded
            .lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no recorded {name} checkpoint"));
        let old: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect();

        let mut live = CohortActor::new(&engine, spec.clone(), model, config, policy);
        assert_eq!(live.kind(), kind);
        for _ in 0..2 {
            assert!(matches!(live.run_round(&engine), RoundStep::Progressed));
        }
        assert_eq!(live.checkpoint().to_bytes(), old, "{name}: bytes moved");

        let checkpoint = CohortCheckpoint::from_bytes(&old).unwrap();
        let mut resumed = CohortActor::restore(&checkpoint, model, config, policy).unwrap();
        let outcome = loop {
            if let RoundStep::Finished(outcome) = resumed.run_round(&engine) {
                break outcome;
            }
        };
        let expected = run_cohort_serial(&engine, &spec, model, config, policy);
        assert_eq!(outcome, expected, "{name}");
        for (a, b) in outcome.marginals.iter().zip(&expected.marginals) {
            assert_eq!(a.to_bits(), b.to_bits(), "{name}");
        }
    }
}
