//! Framework configuration.

use sbgt_bayes::ClassificationRule;
use sbgt_lattice::SparseSwitch;
pub use sbgt_lattice::{ExecMode, ParConfig};

/// Typed configuration error — the validated-construction convention shared
/// with `LookaheadConfig::validate`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A parameter is outside its valid range; the message names it.
    InvalidArgument(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::InvalidArgument(msg) => write!(f, "invalid SBGT configuration: {msg}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Session configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SbgtConfig {
    /// Where the blocks of each lattice pass run: inline or on rayon,
    /// with the same bits either way.
    pub exec: ExecMode,
    /// Classification thresholds (stopping rule).
    pub rule: ClassificationRule,
    /// Largest pool the assay supports.
    pub max_pool_size: usize,
    /// Stage cap for [`crate::SbgtSession::run_to_classification`].
    pub max_stages: usize,
    /// Pools selected per stage (`L ≥ 1`). `1` is the classic one-test-
    /// per-round BHA loop; larger widths run the look-ahead rules — fewer
    /// serial stages for more total tests (experiment E8) — on the
    /// branch-fused fast path.
    pub stage_width: usize,
    /// Adaptive dense→sparse switching policy. `None` (the default) keeps
    /// the posterior dense for the whole session; `Some` switches to the
    /// pruned sparse representation once the retained support falls below
    /// the configured fraction of `2^N` (one-way, per session).
    pub sparse_switch: Option<SparseSwitch>,
}

impl Default for SbgtConfig {
    fn default() -> Self {
        SbgtConfig {
            exec: ExecMode::Parallel(ParConfig),
            rule: ClassificationRule::symmetric(0.99),
            max_pool_size: 16,
            max_stages: 200,
            stage_width: 1,
            sparse_switch: None,
        }
    }
}

impl SbgtConfig {
    /// Check every parameter; [`ConfigError::InvalidArgument`] names the
    /// first violation. Callers that assemble a config from untrusted input
    /// (e.g. a service configuration) get a typed error instead of the
    /// builder panic.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.stage_width == 0 {
            return Err(ConfigError::InvalidArgument(
                "stage width must be at least 1".into(),
            ));
        }
        if self.max_pool_size == 0 {
            return Err(ConfigError::InvalidArgument(
                "pool size cap must be at least 1".into(),
            ));
        }
        if self.max_stages == 0 {
            return Err(ConfigError::InvalidArgument(
                "stage cap must be at least 1".into(),
            ));
        }
        self.rule.validate().map_err(ConfigError::InvalidArgument)?;
        if let Some(switch) = &self.sparse_switch {
            switch.validate().map_err(ConfigError::InvalidArgument)?;
        }
        Ok(())
    }

    /// Builder terminal: panic (with the [`Self::validate`] message) on an
    /// invalid combination, keeping the fluent builders infallible.
    fn validated(self) -> Self {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        self
    }

    /// Run every block inline.
    pub fn serial(mut self) -> Self {
        self.exec = ExecMode::Serial;
        self
    }

    /// Set the assay's pool-size cap.
    pub fn with_max_pool_size(mut self, cap: usize) -> Self {
        self.max_pool_size = cap;
        self.validated()
    }

    /// Set the classification rule.
    pub fn with_rule(mut self, rule: ClassificationRule) -> Self {
        self.rule = rule;
        self
    }

    /// Set the number of pools selected per stage.
    pub fn with_stage_width(mut self, width: usize) -> Self {
        self.stage_width = width;
        self.validated()
    }

    /// Enable adaptive dense→sparse switching with the given policy.
    pub fn with_sparse_switch(mut self, switch: SparseSwitch) -> Self {
        self.sparse_switch = Some(switch);
        self.validated()
    }

    /// The [`LookaheadConfig`](sbgt_select::LookaheadConfig) equivalent of
    /// this session config.
    pub fn lookahead(&self) -> sbgt_select::LookaheadConfig {
        sbgt_select::LookaheadConfig {
            width: self.stage_width,
            max_pool_size: self.max_pool_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_mode_runs_blocks_inline() {
        assert_eq!(SbgtConfig::default().serial().exec, ExecMode::Serial);
    }

    #[test]
    fn builders() {
        let cfg = SbgtConfig::default()
            .with_max_pool_size(8)
            .with_rule(ClassificationRule::symmetric(0.95));
        assert_eq!(cfg.max_pool_size, 8);
        assert!((cfg.rule.pos_threshold - 0.95).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "pool size cap")]
    fn zero_pool_cap_rejected() {
        let _ = SbgtConfig::default().with_max_pool_size(0);
    }

    #[test]
    fn stage_width_maps_to_lookahead_config() {
        let cfg = SbgtConfig::default()
            .with_stage_width(3)
            .with_max_pool_size(8);
        assert_eq!(cfg.stage_width, 3);
        let la = cfg.lookahead();
        assert_eq!(la.width, 3);
        assert_eq!(la.max_pool_size, 8);
        assert!(la.validate().is_ok());
        assert_eq!(SbgtConfig::default().stage_width, 1);
    }

    #[test]
    #[should_panic(expected = "stage width")]
    fn zero_stage_width_rejected() {
        let _ = SbgtConfig::default().with_stage_width(0);
    }

    #[test]
    fn validate_returns_typed_errors() {
        assert!(SbgtConfig::default().validate().is_ok());
        let zero_width = SbgtConfig {
            stage_width: 0,
            ..SbgtConfig::default()
        };
        match zero_width.validate() {
            Err(ConfigError::InvalidArgument(msg)) => assert!(msg.contains("stage width")),
            other => panic!("expected InvalidArgument, got {other:?}"),
        }
        let zero_pool = SbgtConfig {
            max_pool_size: 0,
            ..SbgtConfig::default()
        };
        match zero_pool.validate() {
            Err(ConfigError::InvalidArgument(msg)) => assert!(msg.contains("pool size cap")),
            other => panic!("expected InvalidArgument, got {other:?}"),
        }
        let zero_stages = SbgtConfig {
            max_stages: 0,
            ..SbgtConfig::default()
        };
        match zero_stages.validate() {
            Err(ConfigError::InvalidArgument(msg)) => assert!(msg.contains("stage cap")),
            other => panic!("expected InvalidArgument, got {other:?}"),
        }
        // The rule's fields are public, so a struct literal can hold
        // thresholds `ClassificationRule::new` rejects: NaN, above 1, or
        // a negative threshold not below the positive one.
        for (pos_threshold, neg_threshold) in [
            (f64::NAN, 0.01),
            (0.99, f64::NAN),
            (1.5, 0.01),
            (0.5, 0.5),
            (0.4, 0.6),
        ] {
            let bad_rule = SbgtConfig {
                rule: ClassificationRule {
                    pos_threshold,
                    neg_threshold,
                },
                ..SbgtConfig::default()
            };
            match bad_rule.validate() {
                Err(ConfigError::InvalidArgument(msg)) => assert!(msg.contains("need 0 < neg")),
                other => panic!(
                    "expected InvalidArgument for {pos_threshold}/{neg_threshold}, got {other:?}"
                ),
            }
        }
        // The error renders its message (service logs shed typed reasons).
        let rendered = zero_width.validate().unwrap_err().to_string();
        assert!(rendered.contains("invalid SBGT configuration"));
    }

    #[test]
    fn sparse_switch_builder_and_validation() {
        assert_eq!(SbgtConfig::default().sparse_switch, None);
        let cfg = SbgtConfig::default().with_sparse_switch(SparseSwitch::default());
        assert!(cfg.sparse_switch.is_some());
        assert!(cfg.validate().is_ok());
        let bad = SbgtConfig {
            sparse_switch: Some(SparseSwitch {
                max_support_fraction: 0.0,
                prune_epsilon: 1e-12,
            }),
            ..SbgtConfig::default()
        };
        match bad.validate() {
            Err(ConfigError::InvalidArgument(msg)) => {
                assert!(msg.contains("max_support_fraction"), "message: {msg}")
            }
            other => panic!("expected InvalidArgument, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "prune_epsilon")]
    fn bad_sparse_switch_rejected_by_builder() {
        let _ = SbgtConfig::default().with_sparse_switch(SparseSwitch {
            max_support_fraction: 0.5,
            prune_epsilon: 1.0,
        });
    }
}
