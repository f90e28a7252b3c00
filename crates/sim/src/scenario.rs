//! Named workload scenarios — the configuration table (E1).
//!
//! Each scenario bundles a cohort risk profile, an assay model, and episode
//! parameters. The benchmark harness sweeps these; the presets span the
//! regimes the SBGT evaluation motivates (routine low-prevalence screening,
//! outbreak investigation, mixed-risk clinic intake, strong dilution).

use serde::{Deserialize, Serialize};

use sbgt_response::{BinaryDilutionModel, Dilution};

use crate::population::RiskProfile;
use crate::runner::EpisodeConfig;

/// A named, fully specified workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Short identifier used in reports.
    pub name: String,
    /// Cohort risk structure.
    pub profile: RiskProfile,
    /// Assay model.
    pub model: BinaryDilutionModel,
    /// Episode parameters.
    pub episode: EpisodeConfig,
}

impl Scenario {
    /// Routine screening: low flat prevalence, PCR-like assay.
    pub fn screening(n: usize, prevalence: f64, seed: u64) -> Scenario {
        Scenario {
            name: format!("screening-n{n}-p{prevalence}"),
            profile: RiskProfile::Flat { n, p: prevalence },
            model: BinaryDilutionModel::pcr_like(),
            episode: EpisodeConfig::standard(seed),
        }
    }

    /// Outbreak investigation: elevated prevalence, smaller pools.
    pub fn outbreak(n: usize, seed: u64) -> Scenario {
        Scenario {
            name: format!("outbreak-n{n}"),
            profile: RiskProfile::Flat { n, p: 0.15 },
            model: BinaryDilutionModel::pcr_like(),
            episode: EpisodeConfig {
                max_pool_size: 6,
                ..EpisodeConfig::standard(seed)
            },
        }
    }

    /// Clinic intake: a low-risk majority plus a high-risk contact group.
    pub fn mixed_risk(n_low: usize, n_high: usize, seed: u64) -> Scenario {
        Scenario {
            name: format!("mixed-{n_low}low-{n_high}high"),
            profile: RiskProfile::Groups(vec![(n_low, 0.01), (n_high, 0.25)]),
            model: BinaryDilutionModel::pcr_like(),
            episode: EpisodeConfig::standard(seed),
        }
    }

    /// Strong linear dilution: stresses the dilution-aware selection.
    pub fn strong_dilution(n: usize, seed: u64) -> Scenario {
        Scenario {
            name: format!("dilution-n{n}"),
            profile: RiskProfile::Flat { n, p: 0.05 },
            model: BinaryDilutionModel::new(0.95, 0.99, Dilution::Linear),
            episode: EpisodeConfig {
                max_pool_size: 8,
                ..EpisodeConfig::standard(seed)
            },
        }
    }

    /// Look-ahead turnaround optimization: several pools per stage.
    pub fn lookahead(n: usize, width: usize, seed: u64) -> Scenario {
        Scenario {
            name: format!("lookahead-n{n}-w{width}"),
            profile: RiskProfile::Flat { n, p: 0.05 },
            model: BinaryDilutionModel::pcr_like(),
            episode: EpisodeConfig {
                stage_width: width,
                ..EpisodeConfig::standard(seed)
            },
        }
    }

    /// The default scenario table (E1) at cohort size `n`.
    pub fn standard_table(n: usize, seed: u64) -> Vec<Scenario> {
        vec![
            Scenario::screening(n, 0.005, seed),
            Scenario::screening(n, 0.01, seed),
            Scenario::screening(n, 0.02, seed),
            Scenario::screening(n, 0.05, seed),
            Scenario::screening(n, 0.10, seed),
            Scenario::outbreak(n, seed),
            Scenario::mixed_risk(n.saturating_sub(n / 4).max(1), n / 4, seed),
            Scenario::strong_dilution(n, seed),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_well_formed() {
        for s in Scenario::standard_table(16, 1) {
            assert!(!s.name.is_empty());
            assert!(s.profile.n_subjects() > 0, "{}", s.name);
            assert!(s.episode.max_pool_size >= 1);
        }
    }

    #[test]
    fn mixed_risk_counts() {
        let s = Scenario::mixed_risk(12, 4, 0);
        assert_eq!(s.profile.n_subjects(), 16);
    }

    #[test]
    fn lookahead_scenario_selects_lookahead() {
        let s = Scenario::lookahead(10, 3, 0);
        assert_eq!(s.episode.stage_width, 3);
    }
}
