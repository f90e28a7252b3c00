//! Regenerate every reconstructed SBGT table/figure (E1–E12).
//!
//! Usage:
//!   experiments [--exp e1[,e2,...]] [--quick]
//!
//! With no `--exp`, all experiments run in order; an id outside e1–e12
//! lists the valid ones and exits 2. `--quick` shrinks sweeps for smoke
//! runs. Output is markdown, designed to be pasted into EXPERIMENTS.md.

use std::time::Duration;

use sbgt::prelude::*;
use sbgt::ShardedPosterior;
use sbgt_bayes::{analyze, analyze_on};
use sbgt_bench::{
    bench_prior, best_of, fmt_duration, fmt_speedup, markdown_table, observation_script, timed,
    warmed_posterior,
};
use sbgt_engine::{Engine, EngineConfig};
use sbgt_lattice::{ExecMode, ParConfig, SparsePosterior};
use sbgt_response::ResponseModel;
use sbgt_sim::{
    run_array_testing, run_dorfman, run_individual, square_grid, ConfusionMatrix, EpisodeStats,
    Population, RiskProfile, SummaryStats,
};

/// An experiment's `--exp` id and its entry point, which takes `quick`.
type Experiment = (&'static str, fn(bool));

/// The paper's rows in print order.
const EXPERIMENTS: [Experiment; 12] = [
    ("e1", |_| e1_workloads()),
    ("e2", e2_lattice_manipulation),
    ("e3", e3_test_selection),
    ("e4", e4_statistical_analysis),
    ("e5", e5_strong_scaling),
    ("e6", e6_classification_quality),
    ("e7", e7_testing_efficiency),
    ("e8", e8_lookahead_tradeoff),
    ("e9", e9_stage_breakdown),
    ("e10", e10_pruning_ablation),
    ("e11", e11_misspecification),
    ("e12", e12_selection_rules),
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    // A bare `--exp` selects the empty id, which is rejected below.
    let selected: Vec<String> = match args.iter().position(|a| a == "--exp") {
        Some(i) => args
            .get(i + 1)
            .map_or("", String::as_str)
            .split(',')
            .map(str::to_lowercase)
            .collect(),
        None => Vec::new(),
    };
    if let Some(bad) = selected
        .iter()
        .find(|s| !EXPERIMENTS.iter().any(|(id, _)| id == s))
    {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|&(id, _)| id).collect();
        eprintln!(
            "experiments: unknown --exp id {bad:?}; valid ids: {}",
            ids.join(",")
        );
        std::process::exit(2);
    }

    println!(
        "# SBGT reconstructed experiments ({} mode)",
        if quick { "quick" } else { "full" }
    );
    println!();
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host parallelism: {host} thread(s)");
    println!();

    for (id, run) in EXPERIMENTS {
        if selected.is_empty() || selected.iter().any(|s| s == id) {
            run(quick);
        }
    }
}

/// Classification thresholds adapted to the scenario prevalence: the
/// positive threshold stays at 0.99; the negative threshold sits an order
/// of magnitude below the prior risk so subjects cannot be cleared by the
/// prior alone.
fn prevalence_aware_rule(p: f64) -> ClassificationRule {
    ClassificationRule::new(0.99, (p / 10.0).min(0.01))
}

fn lattice_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![12, 14]
    } else {
        vec![12, 14, 16, 18, 20, 22]
    }
}

fn reps_for(n: usize) -> usize {
    if n <= 16 {
        9
    } else if n <= 20 {
        5
    } else {
        3
    }
}

/// The reference framework (`sbgt::baseline`, what the equivalence tests
/// compare against) brought to the state of [`warmed_posterior`] by the
/// same six scripted observations: the baseline column of E2–E4.
fn warmed_baseline(n: usize) -> BaselineSession<BinaryDilutionModel> {
    let mut base = BaselineSession::new(
        bench_prior(n, 7),
        BinaryDilutionModel::pcr_like(),
        SbgtConfig::default().serial(),
    );
    for (pool, outcome) in observation_script(n, 6) {
        let _ = base.observe(pool, outcome);
    }
    base
}

/// One E1 workload: a named cohort risk structure and assay, and the
/// session configuration its episodes run under.
struct Scenario {
    name: String,
    profile: RiskProfile,
    model: BinaryDilutionModel,
    config: SbgtConfig,
}

/// The E1 table at cohort size `n`: routine screening across prevalences,
/// an outbreak (elevated prevalence, smaller pools), clinic intake (a
/// low-risk majority plus a high-risk contact group) and strong linear
/// dilution (stresses the dilution-aware selection).
fn scenario_table(n: usize) -> Vec<Scenario> {
    let pcr = BinaryDilutionModel::pcr_like();
    let capped = |cap| SbgtConfig::default().with_max_pool_size(cap);
    let (n_low, n_high) = (n.saturating_sub(n / 4).max(1), n / 4);
    let screening = [0.005, 0.01, 0.02, 0.05, 0.10].map(|p| Scenario {
        name: format!("screening-n{n}-p{p}"),
        profile: RiskProfile::Flat { n, p },
        model: pcr,
        config: SbgtConfig::default(),
    });
    let others = [
        Scenario {
            name: format!("outbreak-n{n}"),
            profile: RiskProfile::Flat { n, p: 0.15 },
            model: pcr,
            config: capped(6),
        },
        Scenario {
            name: format!("mixed-{n_low}low-{n_high}high"),
            profile: RiskProfile::Groups(vec![(n_low, 0.01), (n_high, 0.25)]),
            model: pcr,
            config: SbgtConfig::default(),
        },
        Scenario {
            name: format!("dilution-n{n}"),
            profile: RiskProfile::Flat { n, p: 0.05 },
            model: BinaryDilutionModel::new(0.95, 0.99, Dilution::Linear),
            config: capped(8),
        },
    ];
    screening.into_iter().chain(others).collect()
}

/// E1 — the workload configuration table.
fn e1_workloads() {
    println!("## E1 — workload configurations (Table 1)\n");
    let rows: Vec<Vec<String>> = scenario_table(16)
        .into_iter()
        .map(|s| {
            let risks = s.profile.risks();
            let mean_risk = risks.iter().sum::<f64>() / risks.len() as f64;
            vec![
                s.name.clone(),
                s.profile.n_subjects().to_string(),
                format!("{mean_risk:.3}"),
                s.model.dilution.name().to_string(),
                format!("{:.2}", s.model.sensitivity),
                format!("{:.3}", s.model.specificity),
                s.config.max_pool_size.to_string(),
                format!("{:.2}", s.config.rule.pos_threshold),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "scenario",
                "N",
                "mean risk",
                "dilution",
                "sens",
                "spec",
                "max pool",
                "threshold"
            ],
            &rows
        )
    );
}

/// E2 — lattice-model manipulation (posterior update) runtime vs N.
fn e2_lattice_manipulation(quick: bool) {
    println!("## E2 — lattice-model manipulation: posterior update (Fig. A)\n");
    let model = BinaryDilutionModel::pcr_like();
    let par = ExecMode::Parallel(ParConfig);
    let mut rows = Vec::new();
    for n in lattice_sizes(quick) {
        let reps = reps_for(n);
        let base_post = warmed_posterior(n);
        let pool = sbgt_lattice::State::from_subjects((0..8.min(n)).step_by(2));
        let table = model.likelihood_table(true, pool.rank());

        // The reference session is not `Clone`, so its reps stack the same
        // observation on one posterior (no clone inside the timing, unlike
        // the SBGT columns); the cost of `observe` does not depend on the
        // values it multiplies.
        let mut base = warmed_baseline(n);
        let (_, t_base) = best_of(reps, || base.observe(pool, true).expect("likelihoods > 0"));
        let (_, t_fused) = best_of(reps, || {
            let mut p = base_post.clone();
            let z = p.mul_likelihood_fused(pool, &table);
            let inv = 1.0 / z;
            for x in p.probs_mut() {
                *x *= inv;
            }
            p.get(sbgt_lattice::State::EMPTY)
        });
        let (_, t_par) = best_of(reps, || {
            let mut p = base_post.clone();
            let inv = 1.0 / p.scale_mul_likelihood_fused(1.0, pool, &table, par);
            par.fold_mut(
                p.probs_mut(),
                |block, _| block.iter_mut().for_each(|x| *x *= inv),
                |_, _| (),
            );
            p.get(sbgt_lattice::State::EMPTY)
        });
        let engine = Engine::new(EngineConfig::default());
        let (_, t_sharded) = best_of(reps, || {
            let mut sp = ShardedPosterior::from_dense(&base_post, engine.default_partitions());
            sp.update(&engine, &model, pool, true).unwrap();
            sp.total()
        });
        rows.push(vec![
            n.to_string(),
            (1u64 << n).to_string(),
            fmt_duration(t_base),
            fmt_duration(t_fused),
            fmt_duration(t_par),
            fmt_duration(t_sharded),
            fmt_speedup(t_base, t_fused),
            fmt_speedup(t_base, t_par),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "N",
                "states",
                "baseline",
                "SBGT fused",
                "SBGT par",
                "SBGT engine",
                "fused speedup",
                "par speedup"
            ],
            &rows
        )
    );
}

/// E3 — test-selection runtime vs N.
fn e3_test_selection(quick: bool) {
    println!("## E3 — test selection: Bayesian halving (Fig. B)\n");
    let par = ExecMode::Parallel(ParConfig);
    let mut rows = Vec::new();
    for n in lattice_sizes(quick) {
        let reps = reps_for(n);
        let post = warmed_posterior(n);
        let marginals = post.marginals();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| marginals[a].total_cmp(&marginals[b]));

        // Baseline: recompute marginals (N passes) + one full scan per
        // candidate prefix — the pre-SBGT framework's access pattern.
        let base = warmed_baseline(n);
        let (_, t_base) = best_of(reps, || base.select_next());
        // SBGT: single fused all-prefix pass (order maintained incrementally
        // by the session, so not recomputed here).
        let (_, t_fast) = best_of(reps, || {
            let masses = post.prefix_negative_masses(&order);
            let total = masses[0];
            (1..=n.min(16))
                .map(|k| (masses[k] / total - 0.5).abs())
                .fold(f64::INFINITY, f64::min)
        });
        let (_, t_par) = best_of(reps, || {
            let masses = post.prefix_negative_masses_on(&order, par);
            let total = masses[0];
            (1..=n.min(16))
                .map(|k| (masses[k] / total - 0.5).abs())
                .fold(f64::INFINITY, f64::min)
        });
        rows.push(vec![
            n.to_string(),
            fmt_duration(t_base),
            fmt_duration(t_fast),
            fmt_duration(t_par),
            fmt_speedup(t_base, t_fast),
            fmt_speedup(t_base, t_par),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "N",
                "baseline",
                "SBGT one-pass",
                "SBGT par",
                "one-pass speedup",
                "par speedup"
            ],
            &rows
        )
    );
}

/// E4 — statistical-analysis runtime vs N.
fn e4_statistical_analysis(quick: bool) {
    println!("## E4 — statistical analyses (Fig. C)\n");
    let par = ExecMode::Parallel(ParConfig);
    let mut rows = Vec::new();
    for n in lattice_sizes(quick) {
        let reps = reps_for(n);
        let post = warmed_posterior(n);
        // Baseline: per-subject passes + entropy pass + rank pass +
        // materialize-and-sort top-k.
        let base = warmed_baseline(n);
        let (_, t_base) = best_of(reps, || base.report(5).expected_positives);
        let (_, t_fused) = best_of(reps, || analyze(&post, 5).expected_positives);
        let (_, t_par) = best_of(reps, || analyze_on(&post, 5, par).expected_positives);
        rows.push(vec![
            n.to_string(),
            fmt_duration(t_base),
            fmt_duration(t_fused),
            fmt_duration(t_par),
            fmt_speedup(t_base, t_fused),
            fmt_speedup(t_base, t_par),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "N",
                "baseline",
                "SBGT fused",
                "SBGT par",
                "fused speedup",
                "par speedup"
            ],
            &rows
        )
    );
}

/// E5 — strong scaling of the three parallel kernels. A lattice runs on
/// rayon only from two 2^16-state blocks up, so even `--quick` needs
/// N ≥ 17.
fn e5_strong_scaling(quick: bool) {
    println!("## E5 — strong scaling (Fig. D)\n");
    let n = if quick { 18 } else { 20 };
    let host = std::thread::available_parallelism()
        .map(|x| x.get())
        .unwrap_or(1);
    let mut threads = vec![1usize, 2, 4, 8];
    threads.retain(|&t| t <= 2 * host.max(1));
    let post = warmed_posterior(n);
    let model = BinaryDilutionModel::pcr_like();
    let pool = sbgt_lattice::State::from_subjects((0..8.min(n)).step_by(2));
    let table = model.likelihood_table(true, pool.rank());
    let order: Vec<usize> = (0..n).collect();
    let par = ExecMode::Parallel(ParConfig);

    let mut rows = Vec::new();
    let mut t1: Option<(Duration, Duration, Duration)> = None;
    for &t in &threads {
        let rt = rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .expect("rayon pool");
        let (upd, sel, ana) = rt.install(|| {
            let (_, upd) = best_of(5, || {
                let mut p = post.clone();
                p.scale_mul_likelihood_fused(1.0, pool, &table, par)
            });
            let (_, sel) = best_of(5, || post.prefix_negative_masses_on(&order, par)[1]);
            let (_, ana) = best_of(5, || {
                post.marginals_on(par).iter().sum::<f64>() + post.entropy_on(par)
            });
            (upd, sel, ana)
        });
        let base = *t1.get_or_insert((upd, sel, ana));
        rows.push(vec![
            t.to_string(),
            fmt_duration(upd),
            fmt_speedup(base.0, upd),
            fmt_duration(sel),
            fmt_speedup(base.1, sel),
            fmt_duration(ana),
            fmt_speedup(base.2, ana),
        ]);
    }
    println!("(N = {n}; host has {host} hardware thread(s) — scaling saturates there)\n");
    println!(
        "{}",
        markdown_table(
            &[
                "threads",
                "update",
                "upd speedup",
                "selection",
                "sel speedup",
                "analysis",
                "ana speedup"
            ],
            &rows
        )
    );
}

/// E6 — classification quality vs prevalence.
fn e6_classification_quality(quick: bool) {
    println!("## E6 — classification quality (Fig. E)\n");
    let reps = if quick { 12 } else { 80 };
    let n = 12;
    let mut rows = Vec::new();
    for &p in &[0.005, 0.01, 0.02, 0.05, 0.10] {
        let profile = RiskProfile::Flat { n, p };
        let model = BinaryDilutionModel::pcr_like();
        let mut confusion = ConfusionMatrix::default();
        let mut tests = Vec::new();
        for seed in 0..reps {
            let pop = Population::sample(&profile, 1000 + seed);
            // The negative threshold must sit below the prior risk or the
            // rule classifies the whole cohort untested (the
            // operating-point guidance of the method paper).
            let config = SbgtConfig::default().with_rule(prevalence_aware_rule(p));
            let r = SbgtSession::new(pop.prior(), model, config)
                .run_to_classification(pop.lab(&model, seed));
            confusion.merge(&ConfusionMatrix::from_statuses(
                &r.classification.statuses,
                pop.truth(),
            ));
            tests.push(r.tests_per_subject());
        }
        let t = SummaryStats::from_samples(&tests);
        rows.push(vec![
            format!("{p:.3}"),
            format!("{:.3}", confusion.sensitivity()),
            format!("{:.3}", confusion.specificity()),
            format!("{:.1}%", 100.0 * confusion.accuracy()),
            format!("{:.3} ± {:.3}", t.mean, t.sd),
            confusion.undetermined.to_string(),
        ]);
    }
    println!("(N = {n}, PCR-like assay, thresholds pos 0.99 / neg p/10, {reps} replicates/row)\n");
    println!(
        "{}",
        markdown_table(
            &[
                "prevalence",
                "sensitivity",
                "specificity",
                "accuracy",
                "tests/subject",
                "undetermined"
            ],
            &rows
        )
    );
}

/// E7 — testing efficiency: BHA vs Dorfman vs individual, with and
/// without dilution.
fn e7_testing_efficiency(quick: bool) {
    println!("## E7 — group-testing efficiency (Fig. F)\n");
    e7_with_model(
        quick,
        "ideal assay, no dilution (the classic efficiency setting)",
        BinaryDilutionModel::new(0.99, 0.995, Dilution::None),
    );
    e7_with_model(
        quick,
        "PCR-like assay with exponential dilution (pooling information degrades)",
        BinaryDilutionModel::pcr_like(),
    );
}

fn e7_with_model(quick: bool, label: &str, model: BinaryDilutionModel) {
    println!("### {label}\n");
    let reps = if quick { 12 } else { 80 };
    let n = 16;
    let mut rows = Vec::new();
    for &p in &[0.005, 0.01, 0.02, 0.05, 0.10, 0.20] {
        let profile = RiskProfile::Flat { n, p };
        let dorfman_g = ((1.0 / p).sqrt().round() as usize).clamp(2, n);
        let mut bha = Vec::new();
        let mut dorf = Vec::new();
        let mut arr = Vec::new();
        let mut indiv = Vec::new();
        let mut bha_conf = ConfusionMatrix::default();
        let mut dorf_conf = ConfusionMatrix::default();
        let (rows_g, cols_g) = square_grid(n);
        for seed in 0..reps {
            let pop = Population::sample(&profile, 2000 + seed);
            let config = SbgtConfig::default().with_rule(prevalence_aware_rule(p));
            let rb = SbgtSession::new(pop.prior(), model, config)
                .run_to_classification(pop.lab(&model, seed));
            bha.push(rb.tests_per_subject());
            bha_conf.merge(&ConfusionMatrix::from_statuses(
                &rb.classification.statuses,
                pop.truth(),
            ));
            let rd = run_dorfman(&pop, &model, dorfman_g, seed);
            dorf.push(rd.stats.tests_per_subject());
            dorf_conf.merge(&rd.confusion);
            arr.push(
                run_array_testing(&pop, &model, rows_g, cols_g, seed)
                    .stats
                    .tests_per_subject(),
            );
            indiv.push(run_individual(&pop, &model, seed).stats.tests_per_subject());
        }
        let b = SummaryStats::from_samples(&bha);
        let d = SummaryStats::from_samples(&dorf);
        let a = SummaryStats::from_samples(&arr);
        let i = SummaryStats::from_samples(&indiv);
        rows.push(vec![
            format!("{p:.3}"),
            format!("{:.3}", b.mean),
            format!("{:.3}", d.mean),
            format!("{:.3}", a.mean),
            format!("{:.3}", i.mean),
            format!("{:.1}%", 100.0 * (1.0 - b.mean / i.mean)),
            format!("{:.1}%", 100.0 * (1.0 - d.mean / i.mean)),
            format!("{:.1}%", 100.0 * bha_conf.accuracy()),
            format!("{:.1}%", 100.0 * dorf_conf.accuracy()),
        ]);
    }
    println!("(N = {n}, {reps} replicates/row; Dorfman pool ≈ 1/√p; array grid √N × √N)\n");
    println!(
        "{}",
        markdown_table(
            &[
                "prevalence",
                "BHA t/subj",
                "Dorfman t/subj",
                "array t/subj",
                "individual",
                "BHA savings",
                "Dorfman savings",
                "BHA acc",
                "Dorfman acc"
            ],
            &rows
        )
    );
}

/// E8 — look-ahead width: stages vs tests.
fn e8_lookahead_tradeoff(quick: bool) {
    println!("## E8 — look-ahead trade-off (Fig. G)\n");
    let reps = if quick { 10 } else { 60 };
    let n = 12;
    let profile = RiskProfile::Flat { n, p: 0.05 };
    let model = BinaryDilutionModel::pcr_like();
    let mut rows = Vec::new();
    for width in [1usize, 2, 4] {
        let mut stages = Vec::new();
        let mut tests = Vec::new();
        for seed in 0..reps {
            let pop = Population::sample(&profile, 3000 + seed);
            let config = SbgtConfig::default().with_stage_width(width);
            let r = SbgtSession::new(pop.prior(), model, config)
                .run_to_classification(pop.lab(&model, seed));
            stages.push(r.stages as f64);
            tests.push(r.tests as f64);
        }
        let s = SummaryStats::from_samples(&stages);
        let t = SummaryStats::from_samples(&tests);
        rows.push(vec![
            width.to_string(),
            format!("{:.2} ± {:.2}", s.mean, s.sd),
            format!("{:.2} ± {:.2}", t.mean, t.sd),
            format!("{:.3}", t.mean / n as f64),
        ]);
    }
    println!("(N = {n}, p = 0.05, {reps} replicates/row)\n");
    println!(
        "{}",
        markdown_table(
            &["stage width L", "stages", "tests", "tests/subject"],
            &rows
        )
    );
}

/// E9 — end-to-end per-operation breakdown, SBGT vs baseline.
fn e9_stage_breakdown(quick: bool) {
    println!("## E9 — end-to-end operation breakdown (Table 2)\n");
    let n = if quick { 14 } else { 18 };
    let model = BinaryDilutionModel::pcr_like();
    let prior = bench_prior(n, 7);
    let truth = sbgt_lattice::State::from_subjects([1, n - 2]);
    let lab = |pool: sbgt_lattice::State| truth.intersects(pool);

    // SBGT session with manual loop so each operation class is timed.
    let mut fast = SbgtSession::new(prior.clone(), model, SbgtConfig::default());
    let (mut f_upd, mut f_sel, mut f_ana) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    loop {
        let (classification, d) = timed(|| fast.classify());
        f_ana += d;
        if classification.is_terminal() || fast.stages() >= 100 {
            break;
        }
        let (sel, d) = timed(|| fast.select_next());
        f_sel += d;
        let Some(sel) = sel else { break };
        let outcome = lab(sel.pool);
        let (res, d) = timed(|| fast.observe(sel.pool, outcome));
        f_upd += d;
        if res.is_err() {
            break;
        }
    }
    let f_tests = fast.history().len();

    let mut base = BaselineSession::new(prior, model, SbgtConfig::default().serial());
    let (mut b_upd, mut b_sel, mut b_ana) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    loop {
        let (classification, d) = timed(|| base.classify());
        b_ana += d;
        if classification.is_terminal() || base.stages() >= 100 {
            break;
        }
        let (sel, d) = timed(|| base.select_next());
        b_sel += d;
        let Some(sel) = sel else { break };
        let outcome = lab(sel.pool);
        let (res, d) = timed(|| base.observe(sel.pool, outcome));
        b_upd += d;
        if res.is_err() {
            break;
        }
    }
    let b_tests = base.history().len();

    println!("(N = {n}; identical lab oracle; SBGT used {f_tests} tests, baseline {b_tests})\n");
    let rows = vec![
        vec![
            "lattice manipulation (update)".into(),
            fmt_duration(b_upd),
            fmt_duration(f_upd),
            fmt_speedup(b_upd, f_upd),
        ],
        vec![
            "test selection".into(),
            fmt_duration(b_sel),
            fmt_duration(f_sel),
            fmt_speedup(b_sel, f_sel),
        ],
        vec![
            "statistical analysis".into(),
            fmt_duration(b_ana),
            fmt_duration(f_ana),
            fmt_speedup(b_ana, f_ana),
        ],
        vec![
            "total".into(),
            fmt_duration(b_upd + b_sel + b_ana),
            fmt_duration(f_upd + f_sel + f_ana),
            fmt_speedup(b_upd + b_sel + b_ana, f_upd + f_sel + f_ana),
        ],
    ];
    println!(
        "{}",
        markdown_table(&["operation class", "baseline", "SBGT", "speedup"], &rows)
    );
}

/// E10 — sparse-lattice pruning ablation.
fn e10_pruning_ablation(quick: bool) {
    println!("## E10 — pruning ablation (Fig. H)\n");
    let n = if quick { 14 } else { 18 };
    let model = BinaryDilutionModel::pcr_like();
    let dense = warmed_posterior(n);
    let pool = sbgt_lattice::State::from_subjects((0..6.min(n)).step_by(2));
    let dense_marginals = dense.marginals();
    let mut rows = Vec::new();
    for &eps in &[0.0, 1e-12, 1e-9, 1e-6, 1e-3] {
        let mut sparse = SparsePosterior::from_dense(&dense, eps);
        let support = sparse.support();
        let (_, t_update) = best_of(5, || {
            let mut s = sparse.clone();
            s.mul_likelihood_fused(pool, &model.likelihood_table(true, pool.rank()))
        });
        sparse.try_normalize();
        let max_err = sparse
            .marginals()
            .iter()
            .zip(&dense_marginals)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        rows.push(vec![
            format!("{eps:.0e}"),
            support.to_string(),
            format!("{:.2}%", 100.0 * support as f64 / dense.len() as f64),
            fmt_duration(t_update),
            format!("{max_err:.2e}"),
        ]);
    }
    println!("(N = {n}, posterior warmed by 6 observations)\n");
    println!(
        "{}",
        markdown_table(
            &[
                "epsilon",
                "support",
                "support %",
                "update time",
                "max marginal error"
            ],
            &rows
        )
    );
}

/// E11 — robustness to prior misspecification.
fn e11_misspecification(quick: bool) {
    println!("## E11 — prior misspecification robustness (Fig. I)\n");
    let reps = if quick { 10 } else { 60 };
    let n = 12;
    let true_p = 0.05;
    let model = BinaryDilutionModel::pcr_like();
    let config = SbgtConfig::default().with_rule(prevalence_aware_rule(true_p));
    let rows: Vec<Vec<String>> = sbgt_sim::misspecification_sweep(
        n,
        true_p,
        &[0.2, 0.5, 1.0, 2.0, 5.0],
        reps,
        |pop, prior, seed| {
            let r = SbgtSession::new(prior.clone(), model, config)
                .run_to_classification(pop.lab(&model, seed));
            let stats = EpisodeStats {
                tests: r.tests,
                stages: r.stages,
                subjects: r.subjects,
            };
            (stats, r.classification)
        },
    )
    .into_iter()
    .map(|r| {
        vec![
            format!("{:.1}", r.bias),
            format!("{:.3}", r.assumed_prevalence),
            format!("{:.3}", r.confusion.sensitivity()),
            format!("{:.3}", r.confusion.specificity()),
            format!("{:.1}%", 100.0 * r.confusion.accuracy()),
            format!(
                "{:.3} ± {:.3}",
                r.tests_per_subject.mean, r.tests_per_subject.sd
            ),
            format!("{:.1} ± {:.1}", r.stages.mean, r.stages.sd),
        ]
    })
    .collect();
    println!("(N = {n}, true prevalence {true_p}, PCR-like assay, {reps} replicates/row)\n");
    println!(
        "{}",
        markdown_table(
            &[
                "prior bias",
                "assumed p",
                "sensitivity",
                "specificity",
                "accuracy",
                "tests/subject",
                "stages"
            ],
            &rows
        )
    );
}

/// E12 — selection-rule quality/cost: prefix vs zeta-global vs naive
/// exhaustive.
fn e12_selection_rules(quick: bool) {
    println!("## E12 — selection rules: prefix vs global vs exhaustive (Fig. J)\n");
    use sbgt_select::{
        select_halving_exhaustive, select_halving_global, select_halving_prefix, CandidateStrategy,
    };
    let sizes: Vec<usize> = if quick {
        vec![10, 12]
    } else {
        vec![10, 12, 14, 16, 18]
    };
    let mut rows = Vec::new();
    for n in sizes {
        let reps = reps_for(n);
        let post = warmed_posterior(n);
        let marginals = post.marginals();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| marginals[a].total_cmp(&marginals[b]));

        let (sel_prefix, t_prefix) =
            best_of(reps, || select_halving_prefix(&post, &order, 16).unwrap());
        let (sel_global, t_global) =
            best_of(reps, || select_halving_global(&post, &order, 16).unwrap());
        // Naive exhaustive is Θ(4^N): only run it while feasible.
        let naive = if n <= 14 {
            let candidates = CandidateStrategy::Exhaustive { max_pool_size: 16 }.generate(&order);
            let (sel, t) = best_of(1, || select_halving_exhaustive(&post, &candidates).unwrap());
            assert_eq!(sel.pool, sel_global.pool, "global must equal exhaustive");
            Some(t)
        } else {
            None
        };
        rows.push(vec![
            n.to_string(),
            fmt_duration(t_prefix),
            format!("{:.4}", sel_prefix.distance),
            fmt_duration(t_global),
            format!("{:.4}", sel_global.distance),
            naive.map(fmt_duration).unwrap_or_else(|| "—".into()),
        ]);
    }
    println!("(distance = |m(A) − ½|, lower is a better-halving pool; global ≡ exhaustive by construction)\n");
    println!(
        "{}",
        markdown_table(
            &[
                "N",
                "prefix time",
                "prefix dist",
                "global time",
                "global dist",
                "naive exhaustive time"
            ],
            &rows
        )
    );
}
