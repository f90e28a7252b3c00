//! Telemetry configuration — how much the span recorder captures.

use serde::{Deserialize, Serialize};

/// Recording verbosity of the span recorder, from cheapest to richest.
///
/// The disabled path (`Off`) costs one relaxed atomic load per would-be
/// span, which is what keeps the default engine configuration within the
/// documented ≤2% overhead budget on the fused-round hot loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub enum TraceLevel {
    /// Record nothing.
    #[default]
    Off,
    /// Stage, session-phase, and service spans (driver-side only).
    Spans,
    /// Everything: per-task spans on worker threads, fault and
    /// recovery marks, and counter tracks (queue depth, live cohorts).
    Full,
}

/// Default ring capacity (events) of each per-thread span lane.
pub const DEFAULT_LANE_CAPACITY: usize = 4096;

/// Telemetry configuration of an [`crate::Engine`].
///
/// The default is read from the `SBGT_TRACE` environment variable
/// (`off` | `spans` | `full`, unset meaning `off`), so any binary in the
/// workspace can be traced without code changes; programmatic overrides
/// use [`crate::EngineConfig::with_obs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsConfig {
    /// What the recorder captures.
    pub level: TraceLevel,
    /// Ring capacity (events) of each per-thread lane; oldest events are
    /// overwritten once a lane wraps, and the overwritten count is
    /// reported in the trace summary.
    pub lane_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            level: TraceLevel::Off,
            lane_capacity: DEFAULT_LANE_CAPACITY,
        }
    }
}

impl ObsConfig {
    /// Recording disabled (the zero-overhead path).
    pub fn off() -> Self {
        Self::default()
    }

    /// Driver-side spans only.
    pub fn spans() -> Self {
        ObsConfig {
            level: TraceLevel::Spans,
            ..Self::default()
        }
    }

    /// Spans plus per-task spans, marks, and counter tracks.
    pub fn full() -> Self {
        ObsConfig {
            level: TraceLevel::Full,
            ..Self::default()
        }
    }

    /// Read the level from `SBGT_TRACE` (`off`/`0`, `spans`/`1`,
    /// `full`/`2`; unset or unrecognized means `off`).
    pub fn from_env() -> Self {
        let level = match std::env::var("SBGT_TRACE").as_deref() {
            Ok("spans") | Ok("1") => TraceLevel::Spans,
            Ok("full") | Ok("2") => TraceLevel::Full,
            _ => TraceLevel::Off,
        };
        ObsConfig {
            level,
            ..Self::default()
        }
    }

    /// Override the per-lane ring capacity (clamped to at least 16).
    pub fn with_lane_capacity(mut self, capacity: usize) -> Self {
        self.lane_capacity = capacity.max(16);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered() {
        assert!(TraceLevel::Off < TraceLevel::Spans);
        assert!(TraceLevel::Spans < TraceLevel::Full);
    }

    #[test]
    fn default_is_off() {
        let c = ObsConfig::default();
        assert_eq!(c.level, TraceLevel::Off);
        assert_eq!(c.lane_capacity, DEFAULT_LANE_CAPACITY);
        assert_eq!(ObsConfig::off(), c);
    }

    #[test]
    fn presets_set_levels() {
        assert_eq!(ObsConfig::spans().level, TraceLevel::Spans);
        assert_eq!(ObsConfig::full().level, TraceLevel::Full);
    }

    #[test]
    fn lane_capacity_is_clamped() {
        assert_eq!(ObsConfig::full().with_lane_capacity(0).lane_capacity, 16);
        assert_eq!(
            ObsConfig::full().with_lane_capacity(1 << 14).lane_capacity,
            1 << 14
        );
    }
}
