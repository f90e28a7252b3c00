//! Dilution effects: how pooling limits depend on the assay's attenuation
//! curve, and what that does to group-testing efficiency.
//!
//! Reproduces the method paper's qualitative story: without dilution
//! modeling, large pools look free; under strong dilution, sensitivity
//! collapses with pool size and the Bayesian framework must (and does)
//! adapt pool sizes automatically.
//!
//! Run: `cargo run --release --example dilution_study`

use sbgt_repro::sbgt::{SbgtConfig, SbgtSession};
use sbgt_repro::sbgt_response::{BinaryDilutionModel, BinaryOutcomeModel, Dilution};
use sbgt_repro::sbgt_sim::{ConfusionMatrix, Population, RiskProfile, SummaryStats};

fn main() {
    let curves = [
        ("none", Dilution::None),
        ("exponential(α=4)", Dilution::Exponential { alpha: 4.0 }),
        (
            "hill(γ=2, κ=0.3)",
            Dilution::Hill {
                gamma: 2.0,
                kappa: 0.3,
            },
        ),
        ("linear", Dilution::Linear),
    ];

    println!("single-positive detection probability by pool size:");
    println!(
        "{:>20} {:>6} {:>6} {:>6} {:>6}",
        "curve", "n=1", "n=4", "n=8", "n=16"
    );
    for (name, dilution) in curves {
        let m = BinaryDilutionModel::new(0.99, 0.995, dilution);
        println!(
            "{:>20} {:>6.3} {:>6.3} {:>6.3} {:>6.3}",
            name,
            m.positive_prob(1, 1),
            m.positive_prob(1, 4),
            m.positive_prob(1, 8),
            m.positive_prob(1, 16)
        );
    }

    println!();
    println!("largest pool keeping single-positive sensitivity ≥ 0.75:");
    for (name, dilution) in curves {
        // Single-positive sensitivity only falls with pool size, so the
        // largest admissible pool ends the first run that meets the target.
        let largest = (1..=64u32)
            .take_while(|&n| 0.99 * dilution.attenuation(1, n) >= 0.75)
            .last();
        match largest {
            Some(n) => println!("  {name:>20}: {n}"),
            None => println!("  {name:>20}: unreachable even neat"),
        }
    }

    // Efficiency impact: same cohorts, different dilution regimes.
    println!();
    println!("episode cost at N=12, p=0.05 (20 replicates):");
    println!(
        "{:>20} {:>14} {:>12} {:>10}",
        "curve", "tests/subject", "stages", "accuracy"
    );
    for (name, dilution) in curves {
        let model = BinaryDilutionModel::new(0.99, 0.995, dilution);
        let profile = RiskProfile::Flat { n: 12, p: 0.05 };
        let mut tps = Vec::new();
        let mut stages = Vec::new();
        let mut correct = 0usize;
        let mut classified = 0usize;
        for seed in 0..20 {
            let pop = Population::sample(&profile, 500 + seed);
            let r = SbgtSession::new(pop.prior(), model, SbgtConfig::default())
                .run_to_classification(pop.lab(&model, seed));
            let confusion = ConfusionMatrix::from_statuses(&r.classification.statuses, pop.truth());
            tps.push(r.tests_per_subject());
            stages.push(r.stages as f64);
            correct += confusion.tp + confusion.tn;
            classified += confusion.total() - confusion.undetermined;
        }
        let t = SummaryStats::from_samples(&tps);
        let s = SummaryStats::from_samples(&stages);
        println!(
            "{:>20} {:>7.3} ± {:<4.3} {:>6.1} ± {:<4.1} {:>8.1}%",
            name,
            t.mean,
            t.sd,
            s.mean,
            s.sd,
            100.0 * correct as f64 / classified.max(1) as f64
        );
    }
}
