//! Contraction: at every stage end the exact sessions sum out each subject
//! whose posterior mass is exactly zero, so later traversals read `2^m`
//! states for the `m` subjects still stored. Under a model that can miss no
//! positive this happens after every negative pool.
//!
//! An in-memory lattice of one 2^16 block keeps every bit: the session is,
//! bit for bit, an uncontracted driver built from the lattice kernels.
//! Larger lattices and the sharded path may move in ulps but classify,
//! test and contract alike. Snapshots hold the expansion, and a restore
//! contracts again, so any round boundary resumes to the uninterrupted
//! run's bits.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use proptest::prelude::*;
use sbgt::{
    Backend, ExecMode, ParConfig, RoundStep, SbgtConfig, SbgtSession, Session, SessionOutcome,
    SessionSnapshot, ShardedSession, SparseSwitch,
};
use sbgt_bayes::{classify_marginals, BayesError, Prior};
use sbgt_engine::{ChaosConfig, Engine, EngineConfig, FaultPlan};
use sbgt_lattice::{DensePosterior, State};
use sbgt_response::{BinaryDilutionModel, Dilution, ResponseModel};
use sbgt_select::{select_halving_prefix_on, select_stage_lookahead_on, Selection};

fn engine() -> Engine {
    Engine::new(EngineConfig::default().with_threads(2))
}

/// A model that misses no positive but reads 0.5 % of negative pools
/// positive: a negative pool still leaves its members massless.
fn sensitive() -> BinaryDilutionModel {
    BinaryDilutionModel::new(1.0, 0.995, Dilution::None)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Derive a truth over `n` subjects with one to three positives from a
/// free seed.
fn truth_from_seed(seed: u64, n: usize) -> State {
    let count = 1 + (seed % 3) as usize;
    State::from_subjects((0..count).map(|i| (seed >> (8 * i + 2)) as usize % n))
}

/// Distinct risks over 0.012–0.2, in a seeded order.
fn spread_risks(n: usize, seed: u64) -> Vec<f64> {
    let mut risks: Vec<f64> = (0..n)
        .map(|i| 0.012 + 0.188 * i as f64 / n as f64)
        .collect();
    let mut state = seed | 1;
    for i in (1..n).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        risks.swap(i, (state % (i as u64 + 1)) as usize);
    }
    risks
}

/// The in-memory session's arithmetic with nothing contracted, written
/// with the lattice kernels: each observation multiplies with the last
/// scale folded in, each stage end scales and sums the marginals in one
/// pass, and selection scans the whole lattice.
struct Uncontracted {
    posterior: DensePosterior,
    pending: Option<f64>,
    marginals: Option<Vec<f64>>,
    config: SbgtConfig,
    tests: usize,
    stages: usize,
}

impl Uncontracted {
    fn new(prior: &Prior, config: SbgtConfig) -> Self {
        Uncontracted {
            posterior: prior.to_dense(),
            pending: None,
            marginals: None,
            config,
            tests: 0,
            stages: 0,
        }
    }

    fn marginals(&self) -> Vec<f64> {
        self.marginals
            .clone()
            .unwrap_or_else(|| self.posterior.marginals_on(self.config.exec))
    }

    fn select(&self, model: &BinaryDilutionModel, order: &[usize]) -> Vec<Selection> {
        let (exec, cap) = (self.config.exec, self.config.max_pool_size);
        if self.config.stage_width == 1 {
            select_halving_prefix_on(&self.posterior, order, cap, exec)
                .into_iter()
                .collect()
        } else {
            let cfg = self.config.lookahead();
            select_stage_lookahead_on(&self.posterior, model, order, &cfg, exec).unwrap()
        }
    }

    fn observe_stage(
        &mut self,
        model: &BinaryDilutionModel,
        observations: &[(State, bool)],
    ) -> Result<f64, BayesError> {
        let mut joint = 1.0f64;
        for &(pool, outcome) in observations {
            let table = model.likelihood_table(outcome, pool.rank());
            self.marginals = None;
            let scale = self.pending.take().unwrap_or(1.0);
            let z =
                self.posterior
                    .scale_mul_likelihood_fused(scale, pool, &table, self.config.exec);
            if !(z.is_finite() && z > 0.0) {
                return Err(BayesError::ImpossibleObservation);
            }
            self.pending = Some(1.0 / z);
            self.tests += 1;
            joint *= z;
        }
        self.stages += 1;
        if let Some(inv) = self.pending.take() {
            self.marginals = Some(self.posterior.scale_marginals(inv, self.config.exec));
        }
        Ok(joint)
    }
}

/// Serial and parallel, at widths 1 (halving) and 3 (look-ahead).
fn configs() -> Vec<SbgtConfig> {
    [ExecMode::Serial, ExecMode::Parallel(ParConfig)]
        .into_iter()
        .flat_map(|exec| {
            [1, 3].map(|width| {
                SbgtConfig {
                    exec,
                    ..SbgtConfig::default()
                }
                .with_stage_width(width)
            })
        })
        .collect()
}

/// Drive `session` and the uncontracted driver side by side against the
/// lab `truth` and check every read-out each round: evidence, marginals,
/// pools with their masses, tests, stages and the posterior itself.
/// Returns whether the session ever contracted.
fn assert_matches_uncontracted(
    prior: &Prior,
    model: BinaryDilutionModel,
    config: SbgtConfig,
    truth: State,
) -> bool {
    let mut session = SbgtSession::new(prior.clone(), model, config);
    let mut reference = Uncontracted::new(prior, config);
    let full = State::full(prior.n_subjects());
    let mut contracted = false;
    for round in 0..64 {
        let what = format!("{config:?} round {round}");
        let marginals = reference.marginals();
        assert_eq!(
            bits(&session.marginals()),
            bits(&marginals),
            "{what}: marginals"
        );
        assert_eq!(
            bits(session.posterior().probs()),
            bits(reference.posterior.probs()),
            "{what}: posterior"
        );
        assert_eq!(session.tests(), reference.tests, "{what}: tests");
        assert_eq!(session.stages(), reference.stages, "{what}: stages");
        contracted |= session.stored_subjects() != full;
        let classification = classify_marginals(&marginals, config.rule);
        if classification.is_terminal() {
            assert_eq!(session.classify(), classification, "{what}: classification");
            return contracted;
        }
        let mut order = classification.undetermined();
        order.sort_by(|&a, &b| marginals[a].total_cmp(&marginals[b]).then(a.cmp(&b)));
        assert_eq!(session.eligible_order(), order, "{what}: order");
        let want = reference.select(&model, &order);
        let got: Vec<Selection> = if config.stage_width == 1 {
            session.select_next().into_iter().collect()
        } else {
            session.select_stage(config.stage_width).unwrap()
        };
        assert_eq!(got.len(), want.len(), "{what}: stage width");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.pool, w.pool, "{what}: pool");
            assert_eq!(g.negative_mass.to_bits(), w.negative_mass.to_bits());
        }
        let observations: Vec<(State, bool)> = want
            .iter()
            .map(|s| (s.pool, s.pool.intersects(truth)))
            .collect();
        let (zs, zr) = (
            session.observe_stage(&observations),
            reference.observe_stage(&model, &observations),
        );
        assert_eq!(
            zs.map(f64::to_bits),
            zr.map(f64::to_bits),
            "{what}: evidence"
        );
    }
    panic!("{config:?}: no classification in 64 rounds");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A one-block lattice keeps every bit: for cohorts of up to sixteen,
    /// under a perfect assay and a sensitivity-1 assay, the contracting
    /// session is the uncontracted driver, serial and parallel, at widths
    /// 1 and 3.
    #[test]
    fn one_block_sessions_contract_without_moving_a_bit(
        risks in prop::collection::vec(0.01f64..0.3, 3..=12),
        truth_seed in any::<u64>(),
    ) {
        let prior = Prior::from_risks(&risks);
        let truth = truth_from_seed(truth_seed, risks.len());
        for model in [BinaryDilutionModel::perfect(), sensitive()] {
            for config in configs() {
                assert_matches_uncontracted(&prior, model, config, truth);
            }
        }
    }
}

/// Sixteen subjects fill the one block exactly; the negative pools
/// contract the lattice stage after stage and no bit moves.
#[test]
fn a_sixteen_subject_session_contracts_without_moving_a_bit() {
    let prior = Prior::from_risks(&spread_risks(16, 3));
    let truth = State::from_subjects([4, 11]);
    for model in [BinaryDilutionModel::perfect(), sensitive()] {
        for config in [configs()[0], configs()[3]] {
            assert!(assert_matches_uncontracted(&prior, model, config, truth));
        }
    }
}

/// What one run produced, with the stored subjects after every stage
/// (`None` once the posterior is sparse, which stores no lattice).
struct Run {
    outcome: SessionOutcome,
    stored: Vec<Option<State>>,
}

/// Drive an in-memory session to classification, recording the stored
/// subjects after every round.
fn run_in_memory(prior: &Prior, config: SbgtConfig, truth: State) -> Run {
    let mut session = SbgtSession::new(prior.clone(), BinaryDilutionModel::perfect(), config);
    let mut stored = Vec::new();
    loop {
        if let Some(outcome) = session.run_round(|pool| pool.intersects(truth)).finished() {
            return Run { outcome, stored };
        }
        stored.push((!session.is_sparse()).then(|| session.stored_subjects()));
    }
}

/// Drive a sharded session with fresh exact selections, the in-memory
/// rule, recording the stored subjects after every round.
fn run_sharded(e: &Engine, prior: &Prior, parts: usize, truth: State) -> Run {
    let config = SbgtConfig::default();
    let model = BinaryDilutionModel::perfect();
    let mut session = ShardedSession::new(e, prior.clone(), model, config, parts);
    let mut stored = Vec::new();
    loop {
        let marginals = session.marginals();
        let classification = classify_marginals(&marginals, config.rule);
        let next = session
            .select_next(e)
            .filter(|_| !classification.is_terminal());
        let Some(selection) = next else {
            let outcome = SessionOutcome {
                tests: session.tests(),
                stages: session.stages(),
                subjects: session.n_subjects(),
                classification,
                marginals,
            };
            return Run { outcome, stored };
        };
        let pool = selection.pool;
        session.observe(e, pool, pool.intersects(truth)).unwrap();
        stored.push(Some(session.stored_subjects()));
    }
}

fn assert_agrees(a: &Run, b: &Run, what: &str) {
    let (x, y) = (&a.outcome, &b.outcome);
    assert_eq!(x.classification, y.classification, "{what}: statuses");
    assert_eq!(x.tests, y.tests, "{what}: tests");
    assert_eq!(x.stages, y.stages, "{what}: stages");
    for (stage, (p, q)) in a.stored.iter().zip(&b.stored).enumerate() {
        if let (Some(p), Some(q)) = (p, q) {
            assert_eq!(p, q, "{what}: stage {stage} contracted otherwise");
        }
    }
    for (p, q) in x.marginals.iter().zip(&y.marginals) {
        assert!((p - q).abs() < 1e-12, "{what}: marginal {p} vs {q}");
    }
}

/// Past one block the sums may move in ulps, but every mode classifies,
/// tests and contracts at the same stages as the in-memory serial run:
/// parallel (bit for bit: the contraction is one serial pass and every
/// other pass folds its blocks in order), sharded over one to four
/// partitions, and hybrid.
#[test]
fn multi_block_modes_contract_at_the_same_stages() {
    let e = engine();
    for (n, truth) in [
        (17, State::from_subjects([2, 9])),
        (18, State::from_subjects([5])),
    ] {
        let prior = Prior::from_risks(&spread_risks(n, n as u64));
        let serial = run_in_memory(&prior, SbgtConfig::default().serial(), truth);
        assert!(
            serial.stored.iter().flatten().any(|s| s.rank() < 8),
            "n = {n}: the run never contracted far"
        );
        let parallel = run_in_memory(&prior, SbgtConfig::default(), truth);
        assert_agrees(&parallel, &serial, &format!("n = {n} parallel"));
        assert_eq!(
            bits(&parallel.outcome.marginals),
            bits(&serial.outcome.marginals)
        );
        let hybrid = SbgtConfig::default().with_sparse_switch(SparseSwitch::default());
        let hybrid = run_in_memory(&prior, hybrid, truth);
        assert!(
            hybrid.stored.contains(&None),
            "n = {n}: hybrid never switched"
        );
        assert_agrees(&hybrid, &serial, &format!("n = {n} hybrid"));
        for parts in 1..=4 {
            let sharded = run_sharded(&e, &prior, parts, truth);
            assert_agrees(&sharded, &serial, &format!("n = {n} sharded {parts}"));
        }
    }
}

/// One run, round by round: the snapshot bytes and the marginal bits at
/// every round boundary, then the outcome and the pools tested.
struct Recorded {
    rounds: Vec<(Vec<u8>, Vec<u64>)>,
    outcome: SessionOutcome,
    history: Vec<(State, bool)>,
}

fn record<B: Backend<Pool = State>>(
    session: &mut Session<B>,
    ctx: B::Ctx<'_>,
    truth: State,
) -> Recorded {
    let mut rounds = Vec::new();
    let outcome = loop {
        rounds.push((session.snapshot().to_bytes(), bits(&session.marginals())));
        if let Some(outcome) = session.round(ctx, |pool| pool.intersects(truth)).finished() {
            break outcome;
        }
    };
    let history = session.backend().plan_history().unwrap().to_vec();
    Recorded {
        rounds,
        outcome,
        history,
    }
}

/// `resumed`, restored from the snapshot of round `from`, re-snapshots to
/// the same bytes and then reads the recorded marginal bits at every round
/// boundary, and ends with the recorded outcome and pools.
fn assert_resumes<B: Backend<Pool = State>>(
    mut resumed: Session<B>,
    ctx: B::Ctx<'_>,
    truth: State,
    recorded: &Recorded,
    from: usize,
    what: &str,
) {
    assert_eq!(
        resumed.snapshot().to_bytes(),
        recorded.rounds[from].0,
        "{what}: re-snapshot"
    );
    let mut round = from;
    let outcome = loop {
        let marginals = bits(&resumed.marginals());
        assert_eq!(marginals, recorded.rounds[round].1, "{what}: round {round}");
        if let Some(outcome) = resumed.round(ctx, |pool| pool.intersects(truth)).finished() {
            break outcome;
        }
        round += 1;
    };
    assert_eq!(round + 1, recorded.rounds.len(), "{what}: rounds");
    let history = resumed.backend().plan_history().unwrap();
    assert_eq!(history, &recorded.history[..], "{what}: history");
    assert_eq!(outcome, recorded.outcome, "{what}: outcome");
    assert_eq!(bits(&outcome.marginals), bits(&recorded.outcome.marginals));
}

/// Every round boundary of an in-memory run resumes, through the snapshot
/// bytes, to the uninterrupted run's bits: a multi-block dense lattice,
/// and a hybrid run whose late snapshots are sparse.
#[test]
fn in_memory_snapshots_at_every_round_resume_bit_for_bit() {
    let model = BinaryDilutionModel::perfect();
    let dense = SbgtConfig::default().serial();
    let hybrid = SbgtConfig::default().with_sparse_switch(SparseSwitch {
        max_support_fraction: 1.0 / 256.0,
        prune_epsilon: 1e-12,
    });
    // The second cohort's first pool is negative, so it contracts a
    // two-block lattice, whose fold the contracted sums do not repeat.
    let cohorts = [
        (dense, 5, State::from_subjects([1, 12])),
        (dense, 4, State::from_subjects([4])),
        (hybrid, 5, State::from_subjects([1, 12])),
    ];
    for (config, seed, truth) in cohorts {
        let prior = Prior::from_risks(&spread_risks(17, seed));
        let mut session = SbgtSession::new(prior, model, config);
        let recorded = record(&mut session, None, truth);
        if config.sparse_switch.is_some() {
            assert!(session.is_sparse(), "the hybrid run never switched");
        }
        for (round, (bytes, _)) in recorded.rounds.iter().enumerate() {
            let snapshot = SessionSnapshot::from_bytes(bytes).unwrap();
            let resumed = SbgtSession::restore(&snapshot, model, config).unwrap();
            let what = format!("{config:?} from round {round}");
            assert_resumes(resumed, None, truth, &recorded, round, &what);
        }
    }
}

/// Every round boundary of a pipelined sharded run resumes to the
/// uninterrupted run's bits, its selection bank included.
#[test]
fn sharded_snapshots_at_every_round_resume_bit_for_bit() {
    let e = engine();
    let model = BinaryDilutionModel::perfect();
    let config = SbgtConfig::default();
    let truth = State::from_subjects([3, 8]);
    for (n, parts) in [(13, 3), (17, 4)] {
        let prior = Prior::from_risks(&spread_risks(n, 11));
        let mut session = ShardedSession::new(&e, prior, model, config, parts);
        let recorded = record(&mut session, &e, truth);
        assert!(session.stored_subjects().rank() < n as u32 - 4);
        for (round, (bytes, _)) in recorded.rounds.iter().enumerate() {
            let snapshot = SessionSnapshot::from_bytes(bytes).unwrap();
            let resumed = ShardedSession::restore(&snapshot, model, config).unwrap();
            let what = format!("n = {n}, {parts} parts, from round {round}");
            assert_resumes(resumed, &e, truth, &recorded, round, &what);
        }
    }
}

/// One all-negative pool over four subjects leaves only the empty state:
/// the lattice contracts to a single state, the cohort classifies, and the
/// external views still number all four subjects.
#[test]
fn an_all_negative_pool_contracts_to_one_state() {
    let pool = State::from_subjects([0, 1, 2, 3]);
    let model = BinaryDilutionModel::perfect();
    let mut s = SbgtSession::new(Prior::flat(4, 0.02), model, SbgtConfig::default());
    s.observe(pool, false).unwrap();
    assert_eq!(s.stored_subjects(), State::EMPTY);
    assert!(s.classify().is_terminal());
    assert_eq!(s.classify().positives(), 0);
    assert!(s.select_next().is_none());
    assert_eq!(s.marginals(), vec![0.0; 4]);
    let mut want = [0.0; 16];
    want[0] = 1.0;
    assert_eq!(s.posterior().probs(), &want[..]);
    assert_eq!(s.report(2).top_states[0], (State::EMPTY, 1.0));

    let e = engine();
    let mut sharded =
        ShardedSession::new(&e, Prior::flat(4, 0.02), model, SbgtConfig::default(), 4);
    sharded.observe(&e, pool, false).unwrap();
    assert_eq!(sharded.stored_subjects(), State::EMPTY);
    assert!(sharded.classify().is_terminal());
    // One state is one partition, and its expansion keeps it.
    assert_eq!(sharded.posterior().num_partitions(), 1);
    assert_eq!(sharded.posterior().to_dense(&e).probs(), &want[..]);
}

/// A subject at zero prior risk (a `Prior` rejects one, so it arrives in
/// a snapshot taken before any stage ended) has no mass from the start:
/// it is summed out at the first stage end, whatever the model, and not
/// before.
#[test]
fn a_zero_risk_subject_contracts_at_the_first_stage_end() {
    let e = engine();
    let model = BinaryDilutionModel::pcr_like();
    let prior = DensePosterior::from_risks(&[0.05, 0.0, 0.2, 0.1]);
    let opened = SessionSnapshot {
        n_subjects: 4,
        shards: vec![prior.probs().to_vec()],
        total: 1.0,
        history: Vec::new(),
        stages: 0,
        marginals: prior.marginals(),
        pending_selection: None,
        sparse: None,
        approx: None,
    };
    let pool = State::from_subjects([2]);
    let mut dense = SbgtSession::restore(&opened, model, SbgtConfig::default()).unwrap();
    let mut sharded = ShardedSession::restore(&opened, model, SbgtConfig::default()).unwrap();
    assert_eq!(dense.stored_subjects(), State::full(4));
    assert_eq!(sharded.stored_subjects(), State::full(4));
    dense.observe(pool, true).unwrap();
    sharded.observe(&e, pool, true).unwrap();
    for (stored, marginals) in [
        (dense.stored_subjects(), dense.marginals()),
        (sharded.stored_subjects(), sharded.marginals()),
    ] {
        assert_eq!(stored, State::from_subjects([0, 2, 3]));
        assert_eq!(marginals[1], 0.0);
    }
}

/// Under an assay that can miss a positive no mass is ever exactly zero,
/// so a seeded run never contracts: every round runs the uncontracted
/// path.
#[test]
fn a_noisy_assay_never_contracts() {
    let e = engine();
    let model = BinaryDilutionModel::pcr_like();
    let prior = Prior::from_risks(&spread_risks(12, 17));
    let truth = State::from_subjects([0, 7]);
    let full = State::full(12);
    let mut dense = SbgtSession::new(prior.clone(), model, SbgtConfig::default());
    let mut sharded = ShardedSession::new(&e, prior, model, SbgtConfig::default(), 3);
    loop {
        let step = dense.run_round(|pool| pool.intersects(truth));
        assert_eq!(dense.stored_subjects(), full);
        if step.finished().is_some() {
            break;
        }
    }
    loop {
        let step = sharded.run_round(&e, |pool| pool.intersects(truth));
        assert_eq!(sharded.stored_subjects(), full);
        if step.finished().is_some() {
            break;
        }
    }
    assert!(dense.classify().is_terminal() && sharded.classify().is_terminal());
}

/// Run `op`; `false` if an injected fault killed one of its stages.
fn survived<T>(op: impl FnOnce() -> T) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(op)) {
        Ok(value) => Some(value),
        Err(payload) => {
            let msg = payload.downcast_ref::<String>().expect("string payload");
            assert!(msg.contains("injected "), "not an injected fault: {msg}");
            None
        }
    }
}

/// A sharded perfect-assay cohort under the service's chaos campaign (2 %
/// panics, 1 % poisons and 3 % 1-ms stragglers per task), each killed
/// round restored from its pre-round snapshot and replayed, as the
/// service recovers: the contracted sessions it restores finish with the
/// fault-free run's pools, outcome and marginal bits.
#[test]
fn a_contracting_sharded_cohort_replays_through_chaos() {
    let model = BinaryDilutionModel::perfect();
    let config = SbgtConfig::default();
    let prior = Prior::from_risks(&spread_risks(12, 23));
    let truth = State::from_subjects([6, 10]);
    let lab = |pool: State| pool.intersects(truth);
    let run = |e: &Engine| {
        let mut kills = 0;
        let mut session = loop {
            match survived(|| ShardedSession::new(e, prior.clone(), model, config, 4)) {
                Some(session) => break session,
                None => kills += 1,
            }
        };
        let outcome = loop {
            let snapshot = session.snapshot();
            match survived(|| session.run_round(e, lab)) {
                Some(RoundStep::Finished(outcome)) => break outcome,
                Some(RoundStep::Progressed) => {}
                None => {
                    kills += 1;
                    session = ShardedSession::restore(&snapshot, model, config).unwrap();
                }
            }
        };
        (outcome, session.history().to_vec(), kills)
    };
    let (clean, clean_history, _) = run(&engine());
    let mut kills = 0;
    for seed in 0..16 {
        let e = engine();
        e.set_fault_plan(FaultPlan::seeded(
            ChaosConfig::new(seed)
                .with_panic_rate(0.02)
                .with_delay_rate(0.03, Duration::from_millis(1))
                .with_poison_rate(0.01),
        ));
        let (outcome, history, k) = run(&e);
        assert_eq!(history, clean_history, "seed {seed}: pools");
        assert_eq!(outcome, clean, "seed {seed}: outcome");
        assert_eq!(bits(&outcome.marginals), bits(&clean.marginals));
        kills += k;
    }
    assert!(kills > 0, "the campaign killed no round");
}
