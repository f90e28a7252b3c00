//! Engine configuration.

use serde::{Deserialize, Serialize};

use crate::obs::ObsConfig;

/// Configuration for an [`crate::Engine`].
///
/// Mirrors the knobs of a Spark deployment that matter to SBGT: executor
/// count (`threads`) and telemetry (`obs`). Partition counts belong to
/// each dataset; [`crate::Engine::default_partitions`] suggests one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Number of executor threads. Defaults to the available parallelism of
    /// the host (at least 1).
    pub threads: usize,
    /// Telemetry recording ([`ObsConfig`]). Defaults to the `SBGT_TRACE`
    /// environment variable (unset meaning off), so any binary can be
    /// traced without code changes; recording off is a branch on one
    /// atomic per instrumentation site.
    pub obs: ObsConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: available_threads(),
            obs: ObsConfig::from_env(),
        }
    }
}

impl EngineConfig {
    /// Set the executor thread count (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Set the telemetry configuration explicitly (overriding the
    /// `SBGT_TRACE` environment default).
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }
}

/// Available hardware parallelism, falling back to 1 when unknown.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        assert!(EngineConfig::default().threads >= 1);
    }

    #[test]
    fn builders_clamp() {
        let c = EngineConfig::default().with_threads(0);
        assert_eq!(c.threads, 1);
    }

    #[test]
    fn obs_builder_overrides_env_default() {
        use crate::obs::TraceLevel;
        let c = EngineConfig::default().with_obs(ObsConfig::full());
        assert_eq!(c.obs.level, TraceLevel::Full);
        assert_eq!(
            EngineConfig::default().with_obs(ObsConfig::off()).obs.level,
            TraceLevel::Off
        );
    }
}
