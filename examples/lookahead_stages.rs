//! Look-ahead pool selection: trading assays for lab turnaround time.
//!
//! Sequential halving is assay-optimal but each stage costs a full lab
//! round-trip (hours for PCR). The look-ahead rules pick several pools per
//! stage *before* any outcome is known. This example sweeps the stage
//! width and prints the stages/tests trade-off curve (experiment E8's
//! figure as text).
//!
//! Run: `cargo run --release --example lookahead_stages`

use sbgt_repro::sbgt_response::BinaryDilutionModel;
use sbgt_repro::sbgt_sim::runner::EpisodeConfig;
use sbgt_repro::sbgt_sim::{run_episode, Population, RiskProfile, SummaryStats};

fn main() {
    let profile = RiskProfile::Flat { n: 12, p: 0.05 };
    let model = BinaryDilutionModel::pcr_like();
    let reps = 30;

    println!("N=12, p=0.05, PCR-like assay, {reps} replicates per width");
    println!(
        "{:>12} {:>14} {:>14} {:>16} {:>18}",
        "stage width", "stages", "tests", "tests/subject", "turnaround (h)*"
    );
    let mut base_stages = None;
    for width in [1usize, 2, 3, 4] {
        let mut stages = Vec::new();
        let mut tests = Vec::new();
        for seed in 0..reps {
            let pop = Population::sample(&profile, 900 + seed);
            let cfg = EpisodeConfig {
                stage_width: width,
                ..EpisodeConfig::standard(seed)
            };
            let r = run_episode(&pop, &model, &cfg);
            stages.push(r.stats.stages as f64);
            tests.push(r.stats.tests as f64);
        }
        let s = SummaryStats::from_samples(&stages);
        let t = SummaryStats::from_samples(&tests);
        base_stages.get_or_insert(s.mean);
        // One PCR round ≈ 4 hours of lab turnaround.
        println!(
            "{:>12} {:>8.2} ± {:<4.2} {:>8.2} ± {:<4.2} {:>14.3} {:>16.1}",
            width,
            s.mean,
            s.sd,
            t.mean,
            t.sd,
            t.mean / 12.0,
            s.mean * 4.0
        );
    }
    println!();
    println!("*assuming a 4-hour assay round; wider stages buy turnaround with extra assays");
}
