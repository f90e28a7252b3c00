//! The metrics read-out and its Prometheus text exposition.
//!
//! [`MetricsRegistry::scrape`] is the one structured read-out of
//! everything the registry aggregates: scalar samples (per-stage job/task
//! counters and wall/task seconds, fault and recovery counters, every
//! service counter, SLO burn gauges, span-ring health) plus every
//! histogram once, in native bucket form. Its three consumers are views
//! of that one value: the per-process page
//! ([`MetricsRegistry::render_prometheus`]), the shard's binary
//! `ObsFrame` (`sbgt-net` moves the scrape into the frame as is), and the
//! fleet page (`FleetScraper` relabels it by shard). The family table
//! (`FAMILIES`) is the only list of metric names, types and HELP texts,
//! and [`hist_series`] the only place that knows how a histogram becomes
//! `_bucket`/`_sum`/`_count` series.
//!
//! The page is the standard text exposition (version 0.0.4), so it can be
//! served to a real Prometheus scraper as is. No external serializer
//! exists in this workspace, so the renderer is hand-rolled and
//! [`parse_prometheus`] — a strict little line-format parser — validates
//! it in tests, in `examples/trace.rs` and in the soak binary.

use std::fmt::Write as _;

use super::hist::LogHistogram;
use super::span::{ObsSnapshot, SpanRecorder};
use crate::metrics::MetricsRegistry;

/// How a metric family reads on a Prometheus page.
#[derive(Clone, Copy)]
enum FamilyKind {
    Counter,
    Gauge,
    /// Scraped natively as an [`ObsHist`] under the family's own name (the
    /// unit the registry records in, so fleet merges stay exact integer
    /// bucket sums). The per-process page keeps the Prometheus base-unit
    /// convention instead: it renders the histogram as `page`, with
    /// bucket bounds and sum divided by `scale`.
    Histogram {
        page: &'static str,
        scale: f64,
    },
}
use FamilyKind::{Counter, Gauge, Histogram};

/// One row of the family table.
struct Family {
    name: &'static str,
    kind: FamilyKind,
    help: &'static str,
}

/// Declares the family table: one row per family, in page order. Each row
/// also names a constant holding the family name, which is how
/// [`MetricsRegistry::scrape`] refers to it — so a metric name is spelled
/// exactly once. To add a family, add a row here and push its samples in
/// `scrape`; the page, the frame and the fleet page pick it up from there.
macro_rules! families {
    ($($id:ident = $name:literal, $kind:expr, $help:literal;)*) => {
        $(const $id: &str = $name;)*
        const FAMILIES: &[Family] = &[$(Family { name: $name, kind: $kind, help: $help }),*];
    };
}

families! {
    STAGE_JOBS = "sbgt_stage_jobs_total", Counter, "Jobs run, by stage name.";
    STAGE_FAILED_JOBS = "sbgt_stage_failed_jobs_total", Counter,
        "Jobs in which a task panicked, by stage name.";
    STAGE_TASKS = "sbgt_stage_tasks_total", Counter, "Task completions, by stage name.";
    STAGE_WALL_SECONDS = "sbgt_stage_wall_seconds_total", Counter,
        "Summed job wall-clock seconds, by stage name.";
    STAGE_TASK_SECONDS = "sbgt_stage_task_seconds_total", Counter,
        "Summed per-task executor seconds, by stage name.";
    FAULTS_INJECTED = "sbgt_faults_injected_total", Counter,
        "Faults injected by the chaos layer, by kind.";
    SUBMITTED = "sbgt_service_specimens_submitted_total", Counter,
        "Specimens admitted past the ingress queue's admission control.";
    SHED = "sbgt_service_specimens_shed_total", Counter,
        "Specimens rejected by admission control.";
    SHED_SLO = "sbgt_service_specimens_shed_slo_total", Counter,
        "Specimens shed because a tenant's latency SLO was breached.";
    SHED_DRAINING = "sbgt_service_specimens_shed_draining_total", Counter,
        "Specimens refused while the service drained for handoff.";
    BATCHES = "sbgt_service_batches_total", Counter,
        "Cohort batches sealed (size- or deadline-triggered).";
    COHORTS_OPENED = "sbgt_service_cohorts_opened_total", Counter, "Cohort sessions opened.";
    COHORTS_COMPLETED = "sbgt_service_cohorts_completed_total", Counter,
        "Cohort sessions driven to a final report.";
    ROUNDS = "sbgt_service_rounds_total", Counter, "BHA rounds executed across all cohorts.";
    RECOVERED_ROUNDS = "sbgt_service_recovered_rounds_total", Counter,
        "Rounds killed by a fault and re-run from a checkpoint.";
    CHECKPOINTS = "sbgt_service_checkpoints_total", Counter, "Session checkpoints taken.";
    RESTORES = "sbgt_service_restores_total", Counter, "Sessions restored from a checkpoint.";
    PLAN_HITS = "sbgt_service_plan_hits_total", Counter,
        "Select steps replayed from a memoized plan-cache tree.";
    PLAN_MISSES = "sbgt_service_plan_misses_total", Counter,
        "Select steps that fell off the plan tree and ran live.";
    PLAN_EXTENDS = "sbgt_service_plan_extends_total", Counter,
        "Plan-tree extensions recorded after cache misses.";
    PLAN_EVICTIONS = "sbgt_service_plan_evictions_total", Counter,
        "Memoized select steps evicted by the per-tree LRU budget.";
    QUEUE_DEPTH_PEAK = "sbgt_service_queue_depth_peak", Gauge,
        "High-water mark of the ingress queue depth.";
    ROUND_LATENCY_US = "sbgt_service_round_latency_us",
        Histogram { page: "sbgt_round_latency_seconds", scale: 1e6 },
        "Per-round wall-clock latency.";
    TENANT_ROUNDS = "sbgt_tenant_rounds_total", Counter, "Engine rounds run, by lab tenant.";
    TENANT_ROUND_LATENCY_US = "sbgt_tenant_round_latency_us",
        Histogram { page: "sbgt_tenant_round_latency_seconds", scale: 1e6 },
        "Per-round wall-clock latency, by lab tenant.";
    TENANT_SLO_BURN_RATE = "sbgt_tenant_slo_burn_rate", Gauge,
        "SLO error-budget burn rate over the rolling window \
         (1.0 = exactly on budget, >1.0 burns early).";
    BP_RELAXATIONS = "sbgt_bp_relaxations_total", Counter,
        "Loopy-BP relaxations run (one per marginal refresh).";
    BP_SWEEPS = "sbgt_bp_sweeps", Histogram { page: "sbgt_bp_sweeps", scale: 1.0 },
        "Sweeps per BP relaxation before the residual converged.";
    BP_RESIDUAL_NANOS = "sbgt_bp_residual_nanos",
        Histogram { page: "sbgt_bp_residual_nanos", scale: 1.0 },
        "Final max-residual per BP relaxation, in nano-units.";
    OBS_EVENTS = "sbgt_obs_events", Gauge,
        "Span-ring events currently retained across all lanes.";
    OBS_LANES = "sbgt_obs_lanes", Gauge,
        "Registered span-ring lanes (one per recording thread).";
    OBS_DROPPED_EVENTS = "sbgt_obs_dropped_events_total", Counter,
        "Events overwritten by span-ring wrap-around, all lanes.";
    OBS_LANE_DROPPED = "sbgt_obs_lane_dropped_total", Counter,
        "Events overwritten by ring wrap-around, by lane (thread) name.";
}

/// One named histogram in native bucket form.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsHist {
    /// Metric name (Prometheus family, without the `_bucket` suffix).
    pub name: String,
    /// Labels identifying the series within the family.
    pub labels: Vec<(String, String)>,
    /// The buckets.
    pub hist: LogHistogram,
}

/// A point-in-time read-out of a [`MetricsRegistry`]: what every exporter
/// renders from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape {
    /// Counters and gauges, with the registry's own `f64` values. No
    /// histogram series: those are in [`Self::hists`], each exactly once.
    pub samples: Vec<PromSample>,
    /// Every histogram, under its native family name.
    pub hists: Vec<ObsHist>,
}

fn owned(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

impl Scrape {
    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.samples.push(PromSample {
            name: name.to_string(),
            labels: owned(labels),
            value,
        });
    }

    fn hist(&mut self, name: &str, labels: &[(&str, &str)], hist: &LogHistogram) {
        self.hists.push(ObsHist {
            name: name.to_string(),
            labels: owned(labels),
            hist: hist.clone(),
        });
    }

    /// The per-process Prometheus page: the family table in order, each
    /// family that has series under one HELP/TYPE header.
    fn render_page(&self) -> String {
        let mut out = String::new();
        for family in FAMILIES {
            let (page, kind) = match family.kind {
                Counter => (family.name, "counter"),
                Gauge => (family.name, "gauge"),
                Histogram { page, .. } => (page, "histogram"),
            };
            let start = out.len();
            let _ = writeln!(out, "# HELP {page} {}", family.help);
            let _ = writeln!(out, "# TYPE {page} {kind}");
            let body = out.len();
            if let Histogram { scale, .. } = family.kind {
                for h in self.hists.iter().filter(|h| h.name == family.name) {
                    for s in hist_series(page, &h.labels, &h.hist, scale, true) {
                        write_sample(&mut out, &s);
                    }
                }
            } else {
                for s in self.samples.iter().filter(|s| s.name == family.name) {
                    write_sample(&mut out, s);
                }
            }
            if out.len() == body {
                out.truncate(start);
            }
        }
        out
    }
}

impl MetricsRegistry {
    /// Read out everything the registry aggregates. With a span-ring
    /// snapshot, also the recorder's ring health: retained events, lane
    /// count, and — the part that is otherwise silently invisible —
    /// ring-wrap drop counters, total and per lane (thread name).
    ///
    /// Families that only exist once something happened (tenant lanes, SLO
    /// burn, BP convergence) are absent until then.
    pub fn scrape(&self, ring: Option<&ObsSnapshot>) -> Scrape {
        let mut s = Scrape::default();
        for a in self.stage_aggregates() {
            let stage = [("stage", a.name.as_str())];
            s.sample(STAGE_JOBS, &stage, a.jobs as f64);
            s.sample(STAGE_FAILED_JOBS, &stage, a.failed_jobs as f64);
            s.sample(STAGE_TASKS, &stage, a.tasks as f64);
            s.sample(STAGE_WALL_SECONDS, &stage, a.wall.as_secs_f64());
            s.sample(STAGE_TASK_SECONDS, &stage, a.task_time.as_secs_f64());
        }

        let faults = self.fault_totals();
        for (kind, count) in [
            ("panic", faults.injected_panics),
            ("delay", faults.injected_delays),
            ("poison", faults.injected_poisons),
        ] {
            s.sample(FAULTS_INJECTED, &[("kind", kind)], count as f64);
        }

        let service = self.service_stats();
        for (name, value) in [
            (SUBMITTED, service.submitted),
            (SHED, service.shed),
            (SHED_SLO, service.shed_slo),
            (SHED_DRAINING, service.shed_draining),
            (BATCHES, service.batches),
            (COHORTS_OPENED, service.cohorts_opened),
            (COHORTS_COMPLETED, service.cohorts_completed),
            (ROUNDS, service.rounds),
            (RECOVERED_ROUNDS, service.recovered_rounds),
            (CHECKPOINTS, service.checkpoints),
            (RESTORES, service.restores),
            (PLAN_HITS, service.plan_hits),
            (PLAN_MISSES, service.plan_misses),
            (PLAN_EXTENDS, service.plan_extends),
            (PLAN_EVICTIONS, service.plan_evictions),
            (QUEUE_DEPTH_PEAK, service.queue_peak),
        ] {
            s.sample(name, &[], value as f64);
        }
        s.hist(ROUND_LATENCY_US, &[], service.round_latency_histogram());
        // Per-tenant lanes: the QoS scheduler's fairness and each tenant's
        // SLO headroom side by side. Burn only for tenants with an SLO-fed
        // window.
        for (tenant, lane) in service.tenants() {
            let tenant = tenant.to_string();
            let tenant = [("tenant", tenant.as_str())];
            s.sample(TENANT_ROUNDS, &tenant, lane.rounds as f64);
            s.hist(TENANT_ROUND_LATENCY_US, &tenant, &lane.latency);
            if let Some(burn) = lane.burn_rate() {
                s.sample(TENANT_SLO_BURN_RATE, &tenant, burn);
            }
        }

        let bp = self.bp_stats();
        if bp.relaxations > 0 {
            s.sample(BP_RELAXATIONS, &[], bp.relaxations as f64);
            s.hist(BP_SWEEPS, &[], &bp.sweeps);
            s.hist(BP_RESIDUAL_NANOS, &[], &bp.residual_nanos);
        }

        if let Some(ring) = ring {
            s.sample(OBS_EVENTS, &[], ring.total_events() as f64);
            s.sample(OBS_LANES, &[], ring.lanes.len() as f64);
            s.sample(OBS_DROPPED_EVENTS, &[], ring.total_dropped() as f64);
            for lane in &ring.lanes {
                let lane_label = [("lane", lane.name.as_str())];
                s.sample(OBS_LANE_DROPPED, &lane_label, lane.dropped as f64);
            }
        }
        s
    }

    /// Render the registry as a Prometheus text exposition page; with a
    /// recorder, including its `sbgt_obs_*` ring-health families.
    pub fn render_prometheus(&self, recorder: Option<&SpanRecorder>) -> String {
        let ring = recorder.map(SpanRecorder::snapshot);
        self.scrape(ring.as_ref()).render_page()
    }
}

/// The `_sum` and `_count` series of one histogram under the family stem
/// `name`, preceded — when `buckets` — by its `_bucket{le=…}` series:
/// cumulative non-empty buckets plus `+Inf`. Bucket bounds and sum are
/// divided by `scale` (1e6 turns microseconds into seconds). `labels` lead
/// every series; `le` comes last.
pub fn hist_series(
    name: &str,
    labels: &[(String, String)],
    hist: &LogHistogram,
    scale: f64,
    buckets: bool,
) -> Vec<PromSample> {
    let series = |suffix: &str, le: Option<String>, value: f64| {
        let mut labels = labels.to_vec();
        labels.extend(le.map(|le| ("le".to_string(), le)));
        PromSample {
            name: format!("{name}{suffix}"),
            labels,
            value,
        }
    };
    let count = hist.count() as f64;
    let mut out = Vec::new();
    if buckets {
        out.extend(
            hist.cumulative_buckets()
                .into_iter()
                .map(|(upper, cumulative)| {
                    let le = format_f64(upper as f64 / scale);
                    series("_bucket", Some(le), cumulative as f64)
                }),
        );
        out.push(series("_bucket", Some("+Inf".to_string()), count));
    }
    out.push(series("_sum", None, hist.sum() as f64 / scale));
    out.push(series("_count", None, count));
    out
}

/// Render samples as exposition sample lines (no HELP/TYPE), escaping
/// every label value.
pub fn render_prom_samples(samples: &[PromSample]) -> String {
    let mut out = String::new();
    for s in samples {
        write_sample(&mut out, s);
    }
    out
}

fn write_sample(out: &mut String, s: &PromSample) {
    out.push_str(&s.name);
    if !s.labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in s.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
        }
        out.push('}');
    }
    if s.value == f64::INFINITY {
        out.push_str(" +Inf\n");
    } else if s.value == f64::NEG_INFINITY {
        out.push_str(" -Inf\n");
    } else if s.value.is_nan() {
        out.push_str(" NaN\n");
    } else {
        let _ = writeln!(out, " {}", format_f64(s.value));
    }
}

/// Label-value escaping per the exposition format: `\`, `"`, and newline
/// become `\\`, `\"`, and `\n`. [`parse_prometheus`] reverses exactly
/// these, so any label value — tenant names, thread names — survives a
/// render→parse cycle (property-tested below).
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Shortest-roundtrip-ish float formatting: plain decimal, trailing
/// zeros trimmed, integers without a decimal point.
fn format_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        return format!("{}", v as i64);
    }
    let s = format!("{v:.9}");
    let trimmed = s.trim_end_matches('0').trim_end_matches('.');
    trimmed.to_string()
}

/// One parsed sample line of a text-exposition document.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name.
    pub name: String,
    /// Labels in source order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl PromSample {
    /// Value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parse a Prometheus text-exposition document into its sample lines
/// (comments and blank lines are skipped; malformed lines are errors).
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, rest) = match line.find(['{', ' ']) {
            Some(i) => (&line[..i], &line[i..]),
            None => return Err(format!("line {}: no value: {raw}", lineno + 1)),
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {}: bad metric name '{name}'", lineno + 1));
        }
        let (labels, value_text) = if let Some(stripped) = rest.strip_prefix('{') {
            let close = find_label_close(stripped)
                .ok_or_else(|| format!("line {}: unterminated labels", lineno + 1))?;
            let labels = parse_labels(&stripped[..close], lineno + 1)?;
            (labels, stripped[close + 1..].trim())
        } else {
            (Vec::new(), rest.trim())
        };
        if value_text.is_empty() {
            return Err(format!("line {}: missing value", lineno + 1));
        }
        let value = match value_text {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v
                .parse::<f64>()
                .map_err(|_| format!("line {}: bad value '{v}'", lineno + 1))?,
        };
        samples.push(PromSample {
            name: name.to_string(),
            labels,
            value,
        });
    }
    Ok(samples)
}

/// Index of the closing `}` of a label block, honoring quoted strings.
fn find_label_close(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut in_quotes = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_quotes => i += 1,
            b'"' => in_quotes = !in_quotes,
            b'}' if !in_quotes => return Some(i),
            _ => {}
        }
        i += 1;
    }
    None
}

fn parse_labels(block: &str, lineno: usize) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let bytes = block.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        // key
        let key_start = i;
        while i < bytes.len() && bytes[i] != b'=' {
            i += 1;
        }
        if i >= bytes.len() {
            return Err(format!("line {lineno}: label without '='"));
        }
        let key = block[key_start..i].trim().to_string();
        i += 1; // '='
        if bytes.get(i) != Some(&b'"') {
            return Err(format!("line {lineno}: label value not quoted"));
        }
        i += 1;
        let mut value = String::new();
        loop {
            match bytes.get(i) {
                None => return Err(format!("line {lineno}: unterminated label value")),
                Some(b'"') => {
                    i += 1;
                    break;
                }
                Some(b'\\') => {
                    match bytes.get(i + 1) {
                        Some(b'\\') => value.push('\\'),
                        Some(b'"') => value.push('"'),
                        Some(b'n') => value.push('\n'),
                        _ => return Err(format!("line {lineno}: bad label escape")),
                    }
                    i += 2;
                }
                Some(_) => {
                    let start = i;
                    i += 1;
                    while i < bytes.len() && bytes[i] & 0xC0 == 0x80 {
                        i += 1;
                    }
                    value.push_str(&block[start..i]);
                }
            }
        }
        labels.push((key, value));
        if bytes.get(i) == Some(&b',') {
            i += 1;
        }
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::tests::job;
    use std::time::Duration;

    #[test]
    fn family_table_names_each_family_once() {
        let mut names: Vec<&str> = FAMILIES.iter().map(|f| f.name).collect();
        // Page names share the scalar namespace: a histogram's page stem
        // must not collide with another family either.
        names.extend(FAMILIES.iter().filter_map(|f| match f.kind {
            Histogram { page, .. } if page != f.name => Some(page),
            _ => None,
        }));
        let distinct: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len());
    }

    #[test]
    fn parser_handles_labels_and_escapes() {
        let doc = "\
# HELP x_total docs\n\
# TYPE x_total counter\n\
x_total{stage=\"fused-round:in-place\",extra=\"a\\\"b\\\\c\"} 42\n\
y_gauge 1.5\n\
z_bucket{le=\"+Inf\"} 7\n";
        let samples = parse_prometheus(doc).unwrap();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].name, "x_total");
        assert_eq!(samples[0].label("stage"), Some("fused-round:in-place"));
        assert_eq!(samples[0].label("extra"), Some("a\"b\\c"));
        assert_eq!(samples[0].value, 42.0);
        assert_eq!(samples[1].name, "y_gauge");
        assert!(samples[1].labels.is_empty());
        assert_eq!(samples[1].value, 1.5);
        assert_eq!(samples[2].label("le"), Some("+Inf"));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "no_value",
            "bad name 1",
            "x{unterminated=\"v 1",
            "x{key} 1",
            "x notanumber",
        ] {
            assert!(parse_prometheus(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn render_round_trips_through_parser() {
        let reg = MetricsRegistry::new();
        reg.record_job(job("fused-round:in-place", &[3, 4], 5));
        reg.record_job(job("lookahead:select", &[2], 2));
        let mut failed = job("fused-round:in-place", &[], 9);
        failed.succeeded = false;
        failed.faults.injected_panics = 2;
        reg.record_job(failed);
        reg.update_service(|s| {
            s.submitted = 100;
            s.shed = 3;
            s.cohorts_opened = 8;
            s.observe_queue_depth(12);
            for ms in [1u64, 2, 3, 4, 100] {
                s.record_round(Duration::from_millis(ms));
            }
        });

        let text = reg.render_prometheus(None);
        let samples = parse_prometheus(&text).unwrap();
        let get = |name: &str| -> Vec<&PromSample> {
            samples.iter().filter(|s| s.name == name).collect()
        };

        let jobs = get("sbgt_stage_jobs_total");
        assert_eq!(jobs.len(), 2);
        let fused = jobs
            .iter()
            .find(|s| s.label("stage") == Some("fused-round:in-place"))
            .unwrap();
        assert_eq!(fused.value, 2.0);
        let failed = get("sbgt_stage_failed_jobs_total");
        assert!(failed
            .iter()
            .any(|s| s.label("stage") == Some("fused-round:in-place") && s.value == 1.0));
        assert_eq!(get("sbgt_stage_tasks_total").len(), 2);

        let panics = get("sbgt_faults_injected_total");
        assert!(panics
            .iter()
            .any(|s| s.label("kind") == Some("panic") && s.value == 2.0));
        assert_eq!(
            get("sbgt_service_specimens_submitted_total")[0].value,
            100.0
        );
        assert_eq!(get("sbgt_service_specimens_shed_total")[0].value, 3.0);
        assert_eq!(get("sbgt_service_queue_depth_peak")[0].value, 12.0);
        assert_eq!(get("sbgt_service_rounds_total")[0].value, 5.0);
    }

    #[test]
    fn histogram_buckets_sum_to_count() {
        let reg = MetricsRegistry::new();
        reg.update_service(|s| {
            for us in [500u64, 1_500, 1_500, 80_000, 2_000_000] {
                s.record_round(Duration::from_micros(us));
            }
        });
        let text = reg.render_prometheus(None);
        let samples = parse_prometheus(&text).unwrap();
        let buckets: Vec<&PromSample> = samples
            .iter()
            .filter(|s| s.name == "sbgt_round_latency_seconds_bucket")
            .collect();
        let count = samples
            .iter()
            .find(|s| s.name == "sbgt_round_latency_seconds_count")
            .unwrap()
            .value;
        let sum = samples
            .iter()
            .find(|s| s.name == "sbgt_round_latency_seconds_sum")
            .unwrap()
            .value;
        assert_eq!(count, 5.0);
        assert!((sum - 2.0835).abs() < 1e-9);
        // Cumulative buckets are non-decreasing in le order and the +Inf
        // bucket equals _count.
        let inf = buckets.last().unwrap();
        assert_eq!(inf.label("le"), Some("+Inf"));
        assert_eq!(inf.value, count);
        let mut last = 0.0;
        for b in &buckets {
            assert!(b.value >= last, "bucket counts must be cumulative");
            last = b.value;
        }
        // le boundaries themselves are ascending.
        let les: Vec<f64> = buckets
            .iter()
            .filter_map(|b| b.label("le"))
            .map(|le| {
                if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().unwrap()
                }
            })
            .collect();
        assert!(les.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn slo_burn_gauge_renders_only_for_slo_fed_tenants() {
        let reg = MetricsRegistry::new();
        reg.update_service(|s| {
            // Tenant 0: SLO 10ms, 1 of 4 rounds over -> burn 25x.
            let slo = Some(Duration::from_millis(10));
            s.record_tenant_round(0, Duration::from_millis(2), slo);
            s.record_tenant_round(0, Duration::from_millis(2), slo);
            s.record_tenant_round(0, Duration::from_millis(2), slo);
            s.record_tenant_round(0, Duration::from_millis(50), slo);
            // Tenant 1: no SLO -> no burn window, no gauge sample.
            s.record_tenant_round(1, Duration::from_millis(2), None);
        });
        let text = reg.render_prometheus(None);
        let samples = parse_prometheus(&text).unwrap();
        let burns: Vec<&PromSample> = samples
            .iter()
            .filter(|s| s.name == "sbgt_tenant_slo_burn_rate")
            .collect();
        assert_eq!(burns.len(), 1);
        assert_eq!(burns[0].label("tenant"), Some("0"));
        assert!((burns[0].value - 25.0).abs() < 1e-9, "{}", burns[0].value);

        // No SLO-fed tenant anywhere: the family is absent entirely, so
        // SLO-less deployments scrape byte-identical to before.
        let reg = MetricsRegistry::new();
        reg.update_service(|s| {
            s.record_tenant_round(0, Duration::from_millis(2), None);
        });
        assert!(!reg
            .render_prometheus(None)
            .contains("sbgt_tenant_slo_burn_rate"));
    }

    #[test]
    fn empty_registry_renders_a_valid_scrape() {
        let reg = MetricsRegistry::new();
        let text = reg.render_prometheus(None);
        let samples = parse_prometheus(&text).unwrap();
        // No stage series yet, but the service block and an empty
        // histogram (+Inf bucket 0) are present and well-formed.
        assert!(samples.iter().all(|s| s.value == 0.0));
        let inf = samples
            .iter()
            .find(|s| s.name == "sbgt_round_latency_seconds_bucket")
            .unwrap();
        assert_eq!(inf.label("le"), Some("+Inf"));
        assert_eq!(inf.value, 0.0);
        // A family with no series prints no bare HELP/TYPE header either.
        assert!(!text.contains("sbgt_stage_"));
        for header in text.lines().filter_map(|l| l.strip_prefix("# TYPE ")) {
            let family = header.split(' ').next().unwrap();
            assert!(samples.iter().any(|s| s.name.starts_with(family)));
        }
    }

    #[test]
    fn obs_drop_counters_reach_the_scrape() {
        use crate::obs::config::ObsConfig;
        use crate::obs::span::{SpanKind, SpanMeta, SpanRecorder};
        let reg = MetricsRegistry::new();
        let rec = SpanRecorder::new(ObsConfig::full().with_lane_capacity(16));
        let name = rec.intern("e");
        for i in 0..40u64 {
            rec.record_span(SpanKind::Phase, name, i, i + 1, SpanMeta::default());
        }
        let text = reg.render_prometheus(Some(&rec));
        let samples = parse_prometheus(&text).unwrap();
        let get = |name: &str| samples.iter().find(|s| s.name == name).unwrap().value;
        assert_eq!(get("sbgt_obs_events"), 16.0);
        assert_eq!(get("sbgt_obs_lanes"), 1.0);
        assert_eq!(get("sbgt_obs_dropped_events_total"), 24.0);
        let lane = samples
            .iter()
            .find(|s| s.name == "sbgt_obs_lane_dropped_total")
            .unwrap();
        assert!(lane.label("lane").is_some());
        assert_eq!(lane.value, 24.0);
        // Without a recorder the obs families are absent entirely.
        assert!(!reg.render_prometheus(None).contains("sbgt_obs_"));
    }

    #[test]
    fn hostile_lane_names_survive_the_scrape_round_trip() {
        use crate::obs::config::ObsConfig;
        use crate::obs::span::{SpanKind, SpanMeta, SpanRecorder};
        let nasty = "lane\\with\"quotes\nand newline";
        let reg = MetricsRegistry::new();
        let rec = SpanRecorder::new(ObsConfig::full().with_lane_capacity(16));
        let name = rec.intern("e");
        let done = std::sync::Arc::new(std::sync::Barrier::new(2));
        let rec2 = std::sync::Arc::new(rec);
        {
            let rec = std::sync::Arc::clone(&rec2);
            let done = std::sync::Arc::clone(&done);
            std::thread::Builder::new()
                .name(nasty.to_string())
                .spawn(move || {
                    rec.record_span(SpanKind::Phase, name, 0, 1, SpanMeta::default());
                    done.wait();
                })
                .unwrap();
        }
        done.wait();
        let text = reg.render_prometheus(Some(&rec2));
        let samples = parse_prometheus(&text).unwrap();
        let lane = samples
            .iter()
            .find(|s| s.name == "sbgt_obs_lane_dropped_total")
            .unwrap();
        assert_eq!(lane.label("lane"), Some(nasty));
    }

    #[test]
    fn sample_rerender_round_trips() {
        let samples = vec![
            PromSample {
                name: "a_total".into(),
                labels: vec![("k".into(), "plain".into())],
                value: 42.0,
            },
            PromSample {
                name: "b_bucket".into(),
                labels: vec![("shard".into(), "3".into()), ("le".into(), "+Inf".into())],
                value: f64::INFINITY,
            },
            PromSample {
                name: "c".into(),
                labels: vec![],
                value: 0.001953125,
            },
        ];
        let text = render_prom_samples(&samples);
        let back = parse_prometheus(&text).unwrap();
        assert_eq!(back, samples);
    }

    mod escaping_props {
        use super::*;
        use proptest::prelude::*;

        fn label_value() -> impl Strategy<Value = String> {
            // Bias toward the three escaped characters plus printable noise.
            prop::collection::vec(
                prop_oneof![
                    Just('\\'),
                    Just('"'),
                    Just('\n'),
                    Just(','),
                    Just('}'),
                    Just('{'),
                    Just('='),
                    (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
                    (0xa0u32..0x2ff).prop_map(|c| char::from_u32(c).unwrap()),
                ],
                0..24,
            )
            .prop_map(|chars| chars.into_iter().collect())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn label_values_survive_render_parse(values in prop::collection::vec(label_value(), 1..4)) {
                let samples: Vec<PromSample> = values
                    .iter()
                    .enumerate()
                    .map(|(i, v)| PromSample {
                        name: format!("m{i}_total"),
                        labels: vec![("lane".into(), v.clone()), ("idx".into(), i.to_string())],
                        value: i as f64,
                    })
                    .collect();
                let text = render_prom_samples(&samples);
                let back = parse_prometheus(&text).unwrap();
                prop_assert_eq!(back, samples);
            }

            #[test]
            fn escaper_is_injective_on_the_escaped_chars(v in label_value()) {
                let escaped = escape_label_value(&v);
                // Escaped text never contains a raw quote or newline, so it
                // can always be embedded between quotes on one line.
                prop_assert!(!escaped.contains('\n'));
                let mut prev_backslash = false;
                for c in escaped.chars() {
                    if c == '"' {
                        prop_assert!(prev_backslash, "unescaped quote in {escaped:?}");
                    }
                    prev_backslash = c == '\\' && !prev_backslash;
                }
            }
        }
    }
}
