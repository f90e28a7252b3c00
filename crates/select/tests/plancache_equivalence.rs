//! Cached ≡ live, bit for bit — the plan cache's entire correctness
//! contract, pinned by proptest across every session kind.
//!
//! For random priors, truths, widths, and models, a session attached to a
//! plan cache must produce **bit-for-bit** identical pools, posteriors,
//! and final reports to a cache-disabled run:
//!
//! * on the warming pass (every select step is a miss that extends the
//!   tree in place);
//! * on the replay pass (a second session over the warmed tree — select
//!   steps are hits with zero selection work);
//! * on a divergent pass (a different ground truth shares the tree's
//!   prefix, falls off it mid-session, and transparently goes live);
//! * under mid-session LRU eviction (a node budget far smaller than the
//!   tree forces constant churn while the session runs).
//!
//! A second property pins key soundness: two configurations that map to
//! the same quantized [`PlanKey`] must run identical live selections, and
//! any selection-relevant difference must change the key — failures name
//! the differing field via [`PlanKey::diff`].

use proptest::prelude::*;

use sbgt::{SbgtConfig, SbgtSession, ShardedSession, SparseSwitch};
use sbgt_bayes::{ClassificationRule, Prior, SubjectStatus};
use sbgt_engine::{Engine, EngineConfig};
use sbgt_lattice::State;
use sbgt_response::BinaryDilutionModel;
use sbgt_select::{PlanCache, PlanHandle, PlanKey, PlanLineage, RiskQuantizer};

/// Everything bit-level a run produces: committed pools with outcomes,
/// final posterior marginal bits, and the report's statuses/counters.
#[derive(Debug, Clone, PartialEq)]
struct Trace {
    history: Vec<(State, bool)>,
    marginal_bits: Vec<u64>,
    statuses: Vec<SubjectStatus>,
    tests: usize,
    stages: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Dense,
    Sharded {
        parts: usize,
    },
    /// Sharded session that switches to the pruned-sparse posterior
    /// mid-run when the support collapses.
    HybridSparse {
        parts: usize,
    },
    Sparse {
        epsilon: f64,
    },
}

/// One generated scenario: a cohort and the session shape it runs under.
#[derive(Debug, Clone)]
struct Scenario {
    risks: Vec<f64>,
    truth_mask: u16,
    stage_width: usize,
    perfect_assay: bool,
    mode: Mode,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    let mode = prop_oneof![
        Just(Mode::Dense),
        (2usize..5).prop_map(|parts| Mode::Sharded { parts }),
        (2usize..4).prop_map(|parts| Mode::HybridSparse { parts }),
        Just(Mode::Sparse { epsilon: 1e-9 }),
    ];
    (
        prop::collection::vec(0.01f64..0.25, 4..=8),
        any::<u16>(),
        1usize..=3,
        any::<bool>(),
        mode,
    )
        .prop_map(
            |(risks, truth_mask, stage_width, perfect_assay, mode)| Scenario {
                risks,
                truth_mask,
                stage_width,
                perfect_assay,
                mode,
            },
        )
}

impl Scenario {
    fn truth(&self) -> State {
        let n = self.risks.len();
        State::from_subjects((0..n).filter(|i| self.truth_mask >> i & 1 == 1))
    }

    fn model(&self) -> BinaryDilutionModel {
        if self.perfect_assay {
            BinaryDilutionModel::perfect()
        } else {
            BinaryDilutionModel::pcr_like()
        }
    }

    fn config(&self) -> SbgtConfig {
        let cfg = SbgtConfig::default()
            .serial()
            .with_stage_width(self.stage_width);
        match self.mode {
            Mode::HybridSparse { .. } => cfg.with_sparse_switch(SparseSwitch {
                // Aggressive switch point so the hybrid transition fires
                // within these small sessions.
                max_support_fraction: 0.5,
                prune_epsilon: 1e-12,
            }),
            _ => cfg,
        }
    }

    fn key(&self) -> PlanKey {
        let cfg = self.config();
        let lineage = match self.mode {
            Mode::Dense => PlanLineage::Dense,
            Mode::Sharded { parts } | Mode::HybridSparse { parts } => PlanLineage::Sharded {
                parts: parts as u32,
            },
            Mode::Sparse { epsilon } => PlanLineage::Sparse {
                epsilon_bits: epsilon.to_bits(),
            },
        };
        PlanKey::new(
            &self.risks,
            &self.model(),
            &cfg.rule,
            cfg.stage_width,
            cfg.max_pool_size,
            cfg.sparse_switch
                .map(|s| (s.max_support_fraction, s.prune_epsilon)),
            lineage,
        )
    }

    /// Run this scenario's session to classification, with or without a
    /// plan, against the deterministic truth-oracle lab.
    fn run(&self, engine: &Engine, truth: State, plan: Option<PlanHandle>) -> Trace {
        let prior = Prior::from_risks(&self.risks);
        let model = self.model();
        let cfg = self.config();
        let lab = |pool: State| truth.intersects(pool);
        match self.mode {
            Mode::Dense => {
                let mut s = SbgtSession::new(prior, model, cfg);
                if let Some(p) = plan {
                    s.attach_plan(p);
                }
                let out = s.run_to_classification(lab);
                Trace {
                    history: s.history().to_vec(),
                    marginal_bits: out.marginals.iter().map(|m| m.to_bits()).collect(),
                    statuses: out.classification.statuses.clone(),
                    tests: out.tests,
                    stages: out.stages,
                }
            }
            Mode::Sharded { parts } | Mode::HybridSparse { parts } => {
                let mut s = ShardedSession::new(engine, prior, model, cfg, parts);
                if let Some(p) = plan {
                    s.attach_plan(p);
                }
                let out = s.run_to_classification(engine, lab);
                Trace {
                    history: s.history().to_vec(),
                    marginal_bits: out.marginals.iter().map(|m| m.to_bits()).collect(),
                    statuses: out.classification.statuses.clone(),
                    tests: out.tests,
                    stages: out.stages,
                }
            }
            Mode::Sparse { epsilon } => {
                let mut s =
                    SbgtSession::new_sparse(prior, model, cfg, epsilon).expect("epsilon in range");
                if let Some(p) = plan {
                    s.attach_plan(p);
                }
                let out = s.run_to_classification(lab);
                Trace {
                    history: s.history().to_vec(),
                    marginal_bits: out.marginals.iter().map(|m| m.to_bits()).collect(),
                    statuses: out.classification.statuses.clone(),
                    tests: out.tests,
                    stages: out.stages,
                }
            }
        }
    }
}

fn engine() -> Engine {
    Engine::new(EngineConfig::default().with_threads(2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: warming, replaying, and diverging off a
    /// shared tree all reproduce the cache-disabled run bit for bit.
    #[test]
    fn cached_runs_are_bit_identical_to_live_runs(sc in scenario(), other_mask in any::<u16>()) {
        let e = engine();
        let truth_a = sc.truth();
        let truth_b = State::from_subjects(
            (0..sc.risks.len()).filter(|i| other_mask >> i & 1 == 1),
        );

        // Cache-disabled references, one per truth.
        let live_a = sc.run(&e, truth_a, None);
        let live_b = sc.run(&e, truth_b, None);

        let cache = PlanCache::new(4096);
        let key = sc.key();

        // Warming pass: every select step misses live and extends.
        let warmed = sc.run(&e, truth_a, Some(cache.handle(key.clone())));
        prop_assert_eq!(&warmed, &live_a, "warming run diverged from live");
        let after_warm = cache.stats();
        prop_assert!(after_warm.extends > 0, "warming must extend the tree");

        // Replay pass: same truth walks the warmed tree end to end.
        let replayed = sc.run(&e, truth_a, Some(cache.handle(key.clone())));
        prop_assert_eq!(&replayed, &live_a, "replay diverged from live");
        let after_replay = cache.stats();
        prop_assert!(
            after_replay.hits > after_warm.hits,
            "replay of an identical trajectory must hit the tree"
        );

        // Divergent pass: a different truth shares the tree's prefix,
        // falls off it where outcomes differ, and goes live from there.
        let diverged = sc.run(&e, truth_b, Some(cache.handle(key)));
        prop_assert_eq!(&diverged, &live_b, "post-divergence rounds must match live");
    }

    /// Mid-session LRU eviction: a node budget of 2 — far below any real
    /// decision tree — forces eviction on every off-path extension. Runs
    /// over the thrashing tree, including a re-run of the first truth
    /// after a second truth's branches evicted its cold subtrees, must
    /// stay bit-identical to live.
    #[test]
    fn mid_session_eviction_never_changes_results(sc in scenario(), other_mask in any::<u16>()) {
        let e = engine();
        let truth_a = sc.truth();
        let truth_b = State::from_subjects(
            (0..sc.risks.len()).filter(|i| other_mask >> i & 1 == 1),
        );
        let live_a = sc.run(&e, truth_a, None);
        let live_b = sc.run(&e, truth_b, None);

        let cache = PlanCache::new(2);
        let key = sc.key();
        let thrashed = sc.run(&e, truth_a, Some(cache.handle(key.clone())));
        prop_assert_eq!(&thrashed, &live_a, "eviction churn changed a result");
        // Truth B's branches force the insert path off A's chain, evicting
        // A's now-cold subtrees mid-session.
        let crossed = sc.run(&e, truth_b, Some(cache.handle(key.clone())));
        prop_assert_eq!(&crossed, &live_b, "cross-truth churn changed a result");
        // A's partially evicted paths re-extend transparently.
        let reused = sc.run(&e, truth_a, Some(cache.handle(key)));
        prop_assert_eq!(&reused, &live_a, "reuse after eviction changed a result");
    }

    /// Key soundness under quantization collisions: risk vectors that
    /// snap to the same buckets produce equal keys and identical live
    /// selections, while any selection-relevant perturbation must change
    /// the key — reported loudly via the differing field.
    #[test]
    fn quantization_collisions_are_sound(
        risks in prop::collection::vec(0.01f64..0.25, 4..=8),
        fracs in prop::collection::vec(0.05f64..0.95, 8),
        buckets in 4u32..64,
        truth_mask in any::<u16>(),
        stage_width in 1usize..=3,
    ) {
        let q = RiskQuantizer::new(buckets);
        // A second cohort whose raw risks differ but live in the same
        // quantization cells: same cell index, different intra-cell
        // offset.
        let collided: Vec<f64> = risks
            .iter()
            .zip(&fracs)
            .map(|(&r, &f)| {
                let cell = (r * f64::from(buckets)).floor();
                (cell + f) / f64::from(buckets)
            })
            .collect();
        let snapped_a = q.snap_all(&risks);
        let snapped_b = q.snap_all(&collided);
        prop_assert_eq!(&snapped_a, &snapped_b, "same cells must snap identically");

        let model = BinaryDilutionModel::pcr_like();
        let rule = ClassificationRule::symmetric(0.99);
        let mk_key = |risks: &[f64], width: usize, cap: usize| {
            PlanKey::new(risks, &model, &rule, width, cap, None, PlanLineage::Dense)
        };
        let key_a = mk_key(&snapped_a, stage_width, 16);
        let key_b = mk_key(&snapped_b, stage_width, 16);
        prop_assert!(
            key_a == key_b,
            "colliding configs split on field {:?}",
            key_a.diff(&key_b)
        );

        // Equal keys ⇒ identical live selection trajectories (both
        // sessions run on the snapped risks, per the service contract of
        // quantize-before-prior).
        let e = engine();
        let n = snapped_a.len();
        let truth = State::from_subjects((0..n).filter(|i| truth_mask >> i & 1 == 1));
        let sc = |risks: &[f64]| Scenario {
            risks: risks.to_vec(),
            truth_mask,
            stage_width,
            perfect_assay: false,
            mode: Mode::Dense,
        };
        let trace_a = sc(&snapped_a).run(&e, truth, None);
        let trace_b = sc(&snapped_b).run(&e, truth, None);
        prop_assert_eq!(trace_a, trace_b, "equal keys must select identically");

        // Selection-relevant perturbations each flip the key, and diff()
        // names the culprit field.
        for (expect, other) in [
            ("stage_width", mk_key(&snapped_a, stage_width + 1, 16)),
            ("max_pool_size", mk_key(&snapped_a, stage_width, 15)),
            (
                "pos_threshold_bits",
                PlanKey::new(
                    &snapped_a,
                    &model,
                    &ClassificationRule::symmetric(0.9975),
                    stage_width,
                    16,
                    None,
                    PlanLineage::Dense,
                ),
            ),
            (
                "lineage",
                PlanKey::new(
                    &snapped_a,
                    &model,
                    &rule,
                    stage_width,
                    16,
                    None,
                    PlanLineage::Sharded { parts: 4 },
                ),
            ),
            (
                "model_fp",
                PlanKey::new(
                    &snapped_a,
                    &BinaryDilutionModel::perfect(),
                    &rule,
                    stage_width,
                    16,
                    None,
                    PlanLineage::Dense,
                ),
            ),
        ] {
            prop_assert_eq!(
                key_a.diff(&other),
                Some(expect),
                "perturbing {} must change exactly that key field",
                expect
            );
        }
    }
}

/// Deterministic spot check that the tiny-budget churn in the proptest
/// above really does evict (the budget protects the active insert path,
/// so a purely linear tree never shrinks — cross-truth branching must).
#[test]
fn cross_truth_churn_actually_evicts() {
    let sc = Scenario {
        risks: vec![0.05, 0.11, 0.07, 0.03, 0.09, 0.13, 0.04, 0.08],
        truth_mask: 0b0110_1001,
        stage_width: 2,
        perfect_assay: true,
        mode: Mode::Dense,
    };
    let e = engine();
    let cache = PlanCache::new(2);
    let key = sc.key();
    sc.run(&e, sc.truth(), Some(cache.handle(key.clone())));
    for mask in [0u16, 0b1111_1111, 0b0000_0110, 0b1001_0000] {
        let truth = State::from_subjects((0..sc.risks.len()).filter(|i| mask >> i & 1 == 1));
        let cached = sc.run(&e, truth, Some(cache.handle(key.clone())));
        let live = sc.run(&e, truth, None);
        assert_eq!(cached, live, "churn changed a result for mask {mask:#b}");
    }
    let stats = cache.stats();
    assert!(
        stats.evictions > 0,
        "four divergent truths against a 2-node budget must evict ({stats:?})"
    );
    assert!(stats.hits > 0 && stats.extends > 0);
}

/// Wide stages under eviction: the 256-slot nodes of a width-8 stage (the
/// shape the `plan-w8` benchmark workload runs) are evicted and their slots
/// reused while cohorts with differing truths replay, extend and fall off
/// one shared tree. Every cohort must stay bit-identical to live.
#[test]
fn wide_stage_eviction_never_changes_results() {
    let sc = Scenario {
        risks: vec![0.02, 0.05, 0.03, 0.08, 0.01, 0.04, 0.06, 0.02, 0.07, 0.03],
        truth_mask: 0,
        stage_width: 8,
        perfect_assay: false,
        mode: Mode::Dense,
    };
    let e = engine();
    let cache = PlanCache::new(16);
    let key = sc.key();
    for i in 0..24u16 {
        // None, one or two positives; every truth recurs after three others.
        let j = i % 4 + 4 * (i / 8);
        let mask = match j % 4 {
            0 => 0,
            1 | 2 => 1 << (j % 10),
            _ => 1 << (j % 10) | 1 << ((j * 7 + 3) % 10),
        };
        let truth = State::from_subjects((0..sc.risks.len()).filter(|s| mask >> s & 1 == 1));
        let cached = sc.run(&e, truth, Some(cache.handle(key.clone())));
        let live = sc.run(&e, truth, None);
        assert_eq!(
            cached, live,
            "cohort {i} (truth {mask:#b}) diverged from live"
        );
    }
    // The tree reaches about 40 nodes; recurring truths replay below the
    // root (more hits than cohorts) while the budget keeps evicting.
    let stats = cache.stats();
    assert!(
        stats.evictions > 0 && stats.hits > 24,
        "a 16-node budget must evict and still replay ({stats:?})"
    );
}

/// Deterministic (non-proptest) spot check that a cache shared across
/// *session kinds* never crosses trees: the same cohort run dense and
/// sharded gets distinct keys (lineage), so neither replays the other's
/// summation order.
#[test]
fn session_kinds_never_share_a_tree() {
    let risks = vec![0.03, 0.07, 0.02, 0.09, 0.05, 0.04];
    let sc_dense = Scenario {
        risks: risks.clone(),
        truth_mask: 0b10010,
        stage_width: 2,
        perfect_assay: true,
        mode: Mode::Dense,
    };
    let sc_sharded = Scenario {
        mode: Mode::Sharded { parts: 3 },
        ..sc_dense.clone()
    };
    assert_eq!(
        sc_dense.key().diff(&sc_sharded.key()),
        Some("lineage"),
        "dense and sharded sessions must key separate trees"
    );

    let e = engine();
    let cache = PlanCache::new(1024);
    let truth = sc_dense.truth();
    let live_dense = sc_dense.run(&e, truth, None);
    let live_sharded = sc_sharded.run(&e, truth, None);
    let cached_dense = sc_dense.run(&e, truth, Some(cache.handle(sc_dense.key())));
    let cached_sharded = sc_sharded.run(&e, truth, Some(cache.handle(sc_sharded.key())));
    assert_eq!(cached_dense, live_dense);
    assert_eq!(cached_sharded, live_sharded);
    assert_eq!(cache.tree_count(), 2, "one tree per lineage");
}
