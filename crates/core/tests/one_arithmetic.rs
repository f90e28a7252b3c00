//! One arithmetic on every host: past one 2^16-state block, every
//! in-memory lattice pass and every in-memory session gives the same bits
//! with its blocks inline (`ExecMode::Serial`) as on rayon
//! (`ExecMode::Parallel`) at 1, 2 and 3 threads.
//!
//! Each executor runs the same script and records every `f64` it produces
//! as bits; the records must be equal.

use sbgt::{ExecMode, ParConfig, SbgtConfig, SbgtSession, SparseSwitch};
use sbgt_bayes::Prior;
use sbgt_lattice::hybrid::retained_support;
use sbgt_lattice::{BranchPool, DensePosterior, LookaheadKernel, State};
use sbgt_response::{BinaryDilutionModel, ResponseModel};

const SIZES: [usize; 2] = [17, 18];

/// Serial, then parallel inside rayon installs of 1, 2 and 3 threads.
fn executors() -> Vec<(ExecMode, usize)> {
    let par = ExecMode::Parallel(ParConfig);
    vec![(ExecMode::Serial, 1), (par, 1), (par, 2), (par, 3)]
}

fn installed<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("rayon pool")
        .install(f)
}

/// The record of `script` under every executor must be the serial one.
fn assert_one_arithmetic(what: &str, script: impl Fn(ExecMode) -> Vec<u64>) {
    let mut reference: Option<Vec<u64>> = None;
    for (exec, threads) in executors() {
        let record = installed(threads, || script(exec));
        match &reference {
            None => reference = Some(record),
            Some(want) => {
                assert_eq!(want.len(), record.len(), "{what}: {exec:?} at {threads}");
                let first = want.iter().zip(&record).position(|(a, b)| a != b);
                assert!(
                    first.is_none(),
                    "{what}: {exec:?} at {threads} thread(s) differs from serial at item {first:?}"
                );
            }
        }
    }
}

fn bits(values: &[f64]) -> impl Iterator<Item = u64> + '_ {
    values.iter().map(|v| v.to_bits())
}

fn risks(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 0.01 + 0.013 * ((i * 7) % 11) as f64)
        .collect()
}

/// A prior moved off its product form by two observations.
fn warmed(n: usize) -> DensePosterior {
    let model = BinaryDilutionModel::pcr_like();
    let mut d = Prior::from_risks(&risks(n)).to_dense();
    for (pool, outcome) in [
        (State::from_subjects((0..n).step_by(3)), false),
        (State::from_subjects([1, 4, n - 1]), true),
    ] {
        d.mul_likelihood(pool, &model.likelihood_table(outcome, pool.rank()));
    }
    d
}

fn branch_pool(model: &BinaryDilutionModel, pool: State) -> BranchPool {
    BranchPool {
        mask: pool.bits(),
        tables: [
            model.likelihood_table(false, pool.rank()),
            model.likelihood_table(true, pool.rank()),
        ],
    }
}

/// Every in-memory reduction: total, marginals, prefix masses, look-ahead
/// histograms, `p ln p`, top-k, MAP, rank distribution, retained support,
/// the update with a pending scale folded in, and scale + marginals.
#[test]
fn every_reduction_is_one_arithmetic() {
    let model = BinaryDilutionModel::pcr_like();
    for n in SIZES {
        let d = warmed(n);
        let order: Vec<usize> = (0..n).map(|i| (i * 5) % n).collect();
        let partial: Vec<usize> = order[..n / 2].to_vec();
        let kernel = LookaheadKernel::new(n, &order);
        let pools = [
            branch_pool(&model, State::from_subjects(order[..3].iter().copied())),
            branch_pool(&model, State::from_subjects(order[..7].iter().copied())),
        ];
        let update = State::from_subjects([0, 2, 9, n - 2]);
        let table = model.likelihood_table(true, update.rank());
        assert_one_arithmetic(&format!("reductions at N = {n}"), |exec| {
            let mut record = vec![d.total_on(exec).to_bits()];
            record.extend(bits(&d.marginals_on(exec)));
            record.extend(bits(&d.prefix_negative_masses_on(&order, exec)));
            record.extend(bits(&d.prefix_negative_masses_on(&partial, exec)));
            for committed in 0..=pools.len() {
                record.extend(bits(&d.lookahead_histograms(
                    &kernel,
                    &pools[..committed],
                    exec,
                )));
            }
            record.push(d.entropy_on(exec).to_bits());
            let (map, p) = d.map_state_on(exec);
            record.extend([map.bits(), p.to_bits()]);
            for k in [0, 1, 9, 2000] {
                let top = d.top_k_on(k, exec);
                record.push(top.len() as u64);
                for (s, p) in top {
                    record.extend([s.bits(), p.to_bits()]);
                }
            }
            record.extend(bits(&d.rank_distribution_on(exec)));
            for epsilon in [0.0, 1e-9, 1e-4] {
                record.push(retained_support(&d, epsilon, exec) as u64);
            }
            let mut u = d.clone();
            let z = u.scale_mul_likelihood_fused(0.7, update, &table, exec);
            record.push(z.to_bits());
            record.extend(bits(u.probs()));
            record.extend(bits(&u.scale_marginals(1.0 / z, exec)));
            record.extend(bits(u.probs()));
            record
        });
    }
}

/// A whole session against a fixed lab truth, to its stage cap at most:
/// pools, outcomes and marginals every round, then the final snapshot
/// bytes; and whether it ended sparse.
fn session_record(
    n: usize,
    model: BinaryDilutionModel,
    config: SbgtConfig,
    truth: State,
) -> (Vec<u64>, bool) {
    let mut session = SbgtSession::new(Prior::from_risks(&risks(n)), model, config);
    let mut record = Vec::new();
    loop {
        let before = session.history().len();
        let step = session.run_round(|pool| pool.intersects(truth));
        for (pool, outcome) in &session.history()[before..] {
            record.extend([pool.bits(), u64::from(*outcome)]);
        }
        record.extend(bits(&session.marginals()));
        if step.finished().is_some() {
            break;
        }
    }
    let sparse = session.is_sparse();
    record.push(u64::from(sparse));
    record.extend(session.snapshot().to_bytes().into_iter().map(u64::from));
    (record, sparse)
}

/// Widths 1 and 3 under a noisy assay, and the dense→sparse switch under
/// a perfect one, whose posterior collapses fast enough to take it.
#[test]
fn every_session_is_one_arithmetic() {
    let (noisy, perfect) = (
        BinaryDilutionModel::pcr_like(),
        BinaryDilutionModel::perfect(),
    );
    for n in SIZES {
        let truth = State::from_subjects([2, 5, n - 3]);
        let base = SbgtConfig {
            max_stages: 10,
            ..SbgtConfig::default()
        };
        let switching = SbgtConfig {
            max_stages: 30,
            sparse_switch: Some(SparseSwitch::default()),
            ..base
        };
        for (what, model, config) in [
            ("width 1", noisy, base),
            ("width 3", noisy, base.with_stage_width(3)),
            ("width 1, sparse switch", perfect, switching),
        ] {
            let what = format!("{what} session at N = {n}");
            assert_one_arithmetic(&what, |exec| {
                session_record(n, model, SbgtConfig { exec, ..config }, truth).0
            });
        }
        // The switching run does switch, so the check covers both arms.
        assert!(
            session_record(n, perfect, switching, truth).1,
            "N = {n}: the sparse switch was not taken"
        );
    }
}
