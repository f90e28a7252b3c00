//! `sbgt-obs` — the engine's telemetry subsystem.
//!
//! Spark ships a stage/task event timeline UI and pluggable metrics
//! sinks as first-class features; this module family is the Rust
//! reproduction's native equivalent, built for a service that runs for
//! days under heavy traffic:
//!
//! * [`config`] — [`ObsConfig`]/[`TraceLevel`]: what to record, read
//!   from `SBGT_TRACE` by default and costing one atomic load when off.
//! * [`span`] — [`SpanRecorder`]: per-thread lock-free ring buffers of
//!   begin/end events keyed by `(stage, task, attempt, cohort)`, fed by
//!   the stage scheduler, both session round loops, and the service.
//! * [`hist`] — [`LogHistogram`]: fixed-size streaming log-bucketed
//!   histograms (≤12.5% relative error) backing all percentile queries.
//! * [`chrome`] — Chrome trace-event JSON export (Perfetto-loadable),
//!   plus the in-repo JSON parser that validates it.
//! * [`prom`] — the registry's one typed read-out
//!   ([`crate::MetricsRegistry::scrape`] → [`Scrape`]) with the metric
//!   family table, its Prometheus text rendering
//!   ([`crate::MetricsRegistry::render_prometheus`]) and the line parser
//!   that validates it.
//!
//! See DESIGN.md §8 for the span model and the exporter formats.

pub mod chrome;
pub mod config;
pub mod hist;
pub mod prom;
pub mod span;

pub use chrome::{
    parse_json, render_chrome_trace, render_chrome_trace_processes, validate_chrome_trace,
    ChromeSummary, JsonValue, ProcessTrace,
};
pub use config::{ObsConfig, TraceLevel, DEFAULT_LANE_CAPACITY};
pub use hist::LogHistogram;
pub use prom::{hist_series, parse_prometheus, render_prom_samples, ObsHist, PromSample, Scrape};
pub use span::{
    trace_id_for_cohort, LaneSnapshot, ObsSnapshot, SpanEvent, SpanGuard, SpanKind, SpanMeta,
    SpanRecorder, TraceContext, NO_COHORT, NO_SEQ, NO_TASK,
};
