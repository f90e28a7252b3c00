//! Property tests: checkpoint/restore is **bit-for-bit**. Snapshotting a
//! session at any round boundary, round-tripping the byte codec, and
//! restoring reproduces the exact posterior bits, the same selection
//! trajectory, and the same final classification as the uninterrupted run —
//! for dense and sharded sessions, across partition counts, stage widths,
//! and snapshot points (including mid-run with a banked pipelined
//! selection).

use proptest::prelude::*;
use sbgt::prelude::*;
use sbgt_engine::{Engine, EngineConfig};

fn engine() -> Engine {
    Engine::new(EngineConfig::default().with_threads(2))
}

/// Distinct per-subject risks derived from a free u64: flat priors leave
/// the ascending-marginal ordering to last-ulp noise, which is valid but
/// makes trajectory comparisons meaningless.
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

fn truth_from_seed(seed: u64, n: usize) -> State {
    State(seed % (1u64 << n))
}

/// Run an uninterrupted session, recording every pool the lab sees.
fn dense_reference(
    risks: &[f64],
    truth: State,
    config: &SbgtConfig,
) -> (SessionOutcome, Vec<State>) {
    let model = BinaryDilutionModel::pcr_like();
    let mut session = SbgtSession::new(Prior::from_risks(risks), model, *config);
    let mut pools = Vec::new();
    let outcome = session.run_to_classification(|pool| {
        pools.push(pool);
        truth.intersects(pool)
    });
    (outcome, pools)
}

fn assert_bitwise_marginals(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.to_bits(), y.to_bits(), "marginal bits differ: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dense session: snapshot after `k` rounds, codec round-trip, restore,
    /// finish — identical trajectory and bit-exact classification.
    #[test]
    fn dense_snapshot_restore_is_bit_exact(
        seed in proptest::arbitrary::any::<u64>(),
        n in 4usize..=9,
        width in 1usize..=3,
        pause_after in 1usize..=4,
    ) {
        let risks = risks_from_seed(seed, n);
        let truth = truth_from_seed(seed >> 7, n);
        let config = SbgtConfig::default().with_stage_width(width).serial();
        let (expected, ref_pools) = dense_reference(&risks, truth, &config);
        let model = BinaryDilutionModel::pcr_like();

        let mut live = SbgtSession::new(Prior::from_risks(&risks), model, config);
        let mut pools = Vec::new();
        let mut finished_early = None;
        for _ in 0..pause_after {
            if let RoundStep::Finished(o) = live.run_round(|pool| {
                pools.push(pool);
                truth.intersects(pool)
            }) {
                finished_early = Some(o);
                break;
            }
        }
        if let Some(outcome) = finished_early {
            // Session classified before the pause point: the stepped run
            // itself must equal the batch reference.
            prop_assert_eq!(pools, ref_pools);
            prop_assert_eq!(outcome, expected);
        } else {
            let bytes = live.snapshot().to_bytes();
            let snap = SessionSnapshot::from_bytes(&bytes).unwrap();
            drop(live);
            let mut restored = SbgtSession::restore(&snap, model, config).unwrap();
            let outcome = restored.run_to_classification(|pool| {
                pools.push(pool);
                truth.intersects(pool)
            });
            prop_assert_eq!(pools, ref_pools, "selection trajectory diverged");
            assert_bitwise_marginals(&outcome.marginals, &expected.marginals);
            prop_assert_eq!(outcome, expected);
        }
    }

    /// Sharded session: same property, across partition counts; the restored
    /// run must also match the *dense serial* reference classification-wise
    /// (same pools, same statuses), proving restore preserves partition
    /// boundaries and the pipelined selection bank.
    #[test]
    fn sharded_snapshot_restore_is_bit_exact(
        seed in proptest::arbitrary::any::<u64>(),
        n in 4usize..=9,
        parts in 1usize..=5,
        pause_after in 1usize..=4,
    ) {
        let e = engine();
        let risks = risks_from_seed(seed, n);
        let truth = truth_from_seed(seed >> 7, n);
        let config = SbgtConfig::default();
        let model = BinaryDilutionModel::pcr_like();

        // Uninterrupted sharded reference.
        let mut reference =
            ShardedSession::new(&e, Prior::from_risks(&risks), model, config, parts);
        let mut ref_pools = Vec::new();
        let expected = reference.run_to_classification(&e, |pool| {
            ref_pools.push(pool);
            truth.intersects(pool)
        });

        let mut live =
            ShardedSession::new(&e, Prior::from_risks(&risks), model, config, parts);
        let mut pools = Vec::new();
        let mut finished_early = None;
        for _ in 0..pause_after {
            if let RoundStep::Finished(o) = live.run_round(&e, |pool| {
                pools.push(pool);
                truth.intersects(pool)
            }) {
                finished_early = Some(o);
                break;
            }
        }
        if let Some(outcome) = finished_early {
            prop_assert_eq!(pools, ref_pools);
            prop_assert_eq!(outcome, expected);
        } else {
            let snap = live.snapshot();
            // Partition boundaries survive the snapshot.
            prop_assert_eq!(snap.shards.len(), parts.min(1usize << n));
            let decoded = SessionSnapshot::from_bytes(&snap.to_bytes()).unwrap();
            prop_assert_eq!(&decoded, &snap);
            drop(live);
            let mut restored = ShardedSession::restore(&decoded, model, config).unwrap();
            let outcome = restored.run_to_classification(&e, |pool| {
                pools.push(pool);
                truth.intersects(pool)
            });
            prop_assert_eq!(pools, ref_pools, "selection trajectory diverged");
            assert_bitwise_marginals(&outcome.marginals, &expected.marginals);
            prop_assert_eq!(outcome, expected);
        }
    }
}

/// The bytes of a live sharded session — pending selection bank included —
/// pass the shared tamper harness *through* restore: they round-trip
/// byte-exactly, truncation and trailing bytes are typed errors, and
/// whatever a flipped byte decodes to is rejected by restore or restores,
/// never a panic and never a corrupted session.
#[test]
fn live_sharded_snapshot_survives_the_tamper_harness() {
    let e = engine();
    let (model, config) = (BinaryDilutionModel::pcr_like(), SbgtConfig::default());
    let risks = risks_from_seed(0xC0FFEE, 5);
    let truth = truth_from_seed(21, 5);
    let mut live = ShardedSession::new(&e, Prior::from_risks(&risks), model, config, 3);
    let _ = live.run_round(&e, |pool| truth.intersects(pool));
    let snapshot = live.snapshot();
    assert!(snapshot.pending_selection.is_some(), "bank is pipelined");
    let bytes = snapshot.to_bytes();
    assert_eq!(SessionSnapshot::from_bytes(&bytes).unwrap(), snapshot);
    sbgt_lattice::bytes::check(&bytes, |tampered| {
        let decoded = SessionSnapshot::from_bytes(tampered)?;
        let _ = ShardedSession::restore(&decoded, model, config);
        Ok::<_, SnapshotError>(decoded.to_bytes())
    });
}

/// A lattice with fewer states than the configured partition count (a
/// one-specimen cohort sealed by a deadline under the default `parts`):
/// the posterior shards at most one state per partition, so the snapshot
/// taken at every round boundary restores, and each resumed run finishes
/// bit-for-bit as the uninterrupted one.
#[test]
fn sharded_snapshot_restores_with_more_parts_than_states() {
    let e = engine();
    let (model, config) = (BinaryDilutionModel::pcr_like(), SbgtConfig::default());
    for n in 1usize..=3 {
        for parts in [8, (1 << n) + 5] {
            let risks = risks_from_seed(n as u64, n);
            let truth = State::from_subjects(0..n);
            let mut reference =
                ShardedSession::new(&e, Prior::from_risks(&risks), model, config, parts);
            let mut ref_pools = Vec::new();
            let expected = reference.run_to_classification(&e, |pool| {
                ref_pools.push(pool);
                truth.intersects(pool)
            });

            let mut live = ShardedSession::new(&e, Prior::from_risks(&risks), model, config, parts);
            let mut pools = Vec::new();
            let mut resumed = 0;
            loop {
                let snap = live.snapshot();
                assert_eq!(snap.shards.len(), 1 << n, "n={n} parts={parts}");
                let decoded = SessionSnapshot::from_bytes(&snap.to_bytes()).unwrap();
                let mut restored = ShardedSession::restore(&decoded, model, config)
                    .unwrap_or_else(|err| panic!("n={n} parts={parts}: {err}"));
                let mut tail = pools.clone();
                let outcome = restored.run_to_classification(&e, |pool| {
                    tail.push(pool);
                    truth.intersects(pool)
                });
                assert_eq!(tail, ref_pools, "n={n} parts={parts}: trajectory diverged");
                assert_bitwise_marginals(&outcome.marginals, &expected.marginals);
                assert_eq!(outcome, expected);
                resumed += 1;
                let step = live.run_round(&e, |pool| {
                    pools.push(pool);
                    truth.intersects(pool)
                });
                if let RoundStep::Finished(_) = step {
                    break;
                }
            }
            assert!(resumed >= 2, "n={n} parts={parts}: no mid-run snapshot");
        }
    }
}
