//! Exporter integration tests: a real engine run at `Full` trace level
//! must yield a Chrome trace that parses, pairs every B with its E, and
//! nests task spans inside their parent stage span — plus a Prometheus
//! scrape that round-trips through the text parser.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use sbgt_engine::obs::{
    parse_json, parse_prometheus, render_chrome_trace, validate_chrome_trace, JsonValue, ObsConfig,
    PromSample, SpanKind, SpanMeta, SpanRecorder, TraceLevel,
};
use sbgt_engine::{Dataset, Engine, EngineConfig, FaultStats, JobMetrics, MetricsRegistry};

/// Fully traced engine with no fault plan.
fn traced_engine() -> Engine {
    Engine::new(
        EngineConfig::default()
            .with_threads(2)
            .with_obs(ObsConfig::full()),
    )
}

/// Run a few engine jobs so every lane holds stage and task spans.
fn run_some_jobs(e: &Engine) {
    let ds = Dataset::from_vec((0..64i64).collect(), 4);
    let doubled =
        ds.aggregate_partitions(e, |_, part| part.iter().map(|x| x * 2).collect::<Vec<_>>());
    assert_eq!(doubled.concat().len(), 64);
    let sums = ds.aggregate_partitions(e, |_, part| part.iter().sum::<i64>());
    assert_eq!(sums.iter().sum::<i64>(), (0..64).sum::<i64>());
}

#[test]
fn chrome_trace_from_a_real_run_parses_and_validates() {
    let e = traced_engine();
    {
        // An outer driver-side span (what a session round records) so the
        // driver lane exercises the validator's nesting logic: stage
        // spans close inside it.
        let rec = e.obs();
        let _round = rec.span(
            TraceLevel::Spans,
            SpanKind::Round,
            "test:round",
            SpanMeta::default(),
        );
        run_some_jobs(&e);
    }
    let trace = render_chrome_trace(e.obs());
    // Strict JSON parse (the in-repo parser rejects malformed output).
    let json = parse_json(&trace).expect("trace must be valid JSON");
    let JsonValue::Obj(fields) = &json else {
        panic!("trace root must be an object");
    };
    assert!(fields.iter().any(|(k, _)| k == "traceEvents"));
    // The structural validator checks B/E pairing, name matching, and
    // per-thread timestamp monotonicity.
    let summary = validate_chrome_trace(&trace).expect("trace must validate");
    assert!(summary.spans > 0, "a real run produces spans");
    assert!(summary.lanes >= 1);
    assert!(
        summary.max_depth >= 2,
        "task spans nest under stage spans (depth {})",
        summary.max_depth
    );
}

#[test]
fn task_spans_nest_inside_their_stage_span() {
    let e = traced_engine();
    run_some_jobs(&e);
    let rec = e.obs();
    let snap = rec.snapshot();
    assert_eq!(snap.total_dropped(), 0, "small run must not wrap the ring");
    let events: Vec<_> = snap.all_events().collect();
    let stages: Vec<_> = events
        .iter()
        .filter(|ev| ev.kind == SpanKind::Stage)
        .collect();
    let tasks: Vec<_> = events
        .iter()
        .filter(|ev| ev.kind == SpanKind::Task)
        .collect();
    assert!(!stages.is_empty() && !tasks.is_empty());
    for task in &tasks {
        let parent = stages
            .iter()
            .find(|s| s.meta.seq == task.meta.seq)
            .unwrap_or_else(|| panic!("task seq {} has no stage span", task.meta.seq));
        assert_eq!(
            rec.name_of(parent.name),
            rec.name_of(task.name),
            "task and stage spans share the stage name"
        );
        // Time containment: the driver closes the stage span after every
        // task result has been received.
        assert!(task.start_ns >= parent.start_ns, "task started early");
        assert!(task.end_ns <= parent.end_ns, "task outlived its stage");
    }
}

/// The env-gated default path: `SBGT_TRACE` selects the level an engine
/// built from `EngineConfig::default()` records at. Lives in this
/// integration binary (not the lib tests) because it mutates process
/// env; every other test here sets `ObsConfig` explicitly.
#[test]
fn sbgt_trace_env_selects_the_default_level() {
    for (value, expect) in [
        ("off", TraceLevel::Off),
        ("spans", TraceLevel::Spans),
        ("full", TraceLevel::Full),
        ("2", TraceLevel::Full),
        ("garbage", TraceLevel::Off),
    ] {
        std::env::set_var("SBGT_TRACE", value);
        assert_eq!(ObsConfig::from_env().level, expect, "SBGT_TRACE={value}");
    }
    std::env::set_var("SBGT_TRACE", "spans");
    let e = Engine::new(EngineConfig::default().with_threads(1));
    assert!(e.obs().enabled_at(TraceLevel::Spans));
    assert!(!e.obs().enabled_at(TraceLevel::Full));
    run_some_jobs(&e);
    let snap = e.obs().snapshot();
    let events: Vec<_> = snap.all_events().collect();
    assert!(events.iter().any(|ev| ev.kind == SpanKind::Stage));
    assert!(
        events.iter().all(|ev| ev.kind != SpanKind::Task),
        "spans level must not record per-task spans"
    );
    std::env::remove_var("SBGT_TRACE");
}

#[test]
fn prometheus_scrape_from_a_real_run_round_trips() {
    let e = traced_engine();
    run_some_jobs(&e);
    let text = e.render_prometheus();
    let samples = parse_prometheus(&text).expect("scrape must parse");
    assert!(!samples.is_empty());
    let jobs: f64 = samples
        .iter()
        .filter(|s| s.name == "sbgt_stage_jobs_total")
        .map(|s| s.value)
        .sum();
    let recorded: u64 = e.metrics().stage_aggregates().iter().map(|a| a.jobs).sum();
    assert_eq!(jobs as u64, recorded);
    // Task totals per stage family match the registry aggregates.
    for agg in e.metrics().stage_aggregates() {
        let tasks = samples
            .iter()
            .find(|s| {
                s.name == "sbgt_stage_tasks_total" && s.label("stage") == Some(agg.name.as_str())
            })
            .expect("every stage family is exported");
        assert_eq!(tasks.value as u64, agg.tasks);
    }
}

fn job(name: &str, task_ns: &[u64], wall_ns: u64) -> JobMetrics {
    JobMetrics {
        name: name.into(),
        tasks: task_ns.len(),
        task_time: Duration::from_nanos(task_ns.iter().sum()),
        wall: Duration::from_nanos(wall_ns),
        succeeded: true,
        faults: FaultStats::default(),
    }
}

/// The registry state `tests/data/parent_scrape.txt` was rendered from
/// (regenerated when the retry and speculation families were dropped, and
/// the broadcast counter after them; every other series is unchanged): stage aggregates (one hostile stage name), fault
/// totals, every service counter, two tenants (one with an SLO burn
/// window), BP stats, and a recorder whose one lane wrapped.
fn golden_state() -> (MetricsRegistry, Arc<SpanRecorder>) {
    let reg = MetricsRegistry::new();
    reg.record_job(job(
        "fused-round:in-place",
        &[3_000_000, 4_000_000],
        5_000_000,
    ));
    reg.record_job(job("lookahead:select", &[2_000_000], 2_000_000));
    reg.record_job(job(
        "stage\\with\"quotes\nand newline",
        &[333_333, 444_444, 7],
        1_234_567,
    ));
    let mut failed = job("fused-round:in-place", &[], 9_000_001);
    failed.succeeded = false;
    failed.faults = FaultStats {
        injected_panics: 2,
        injected_delays: 1,
        injected_poisons: 3,
    };
    reg.record_job(failed);
    reg.update_service(|s| {
        s.submitted = 101;
        s.shed = 13;
        s.shed_slo = 7;
        s.shed_draining = 6;
        s.batches = 17;
        s.cohorts_opened = 19;
        s.cohorts_completed = 18;
        s.recovered_rounds = 2;
        s.checkpoints = 23;
        s.restores = 3;
        s.plan_hits = 29;
        s.plan_misses = 11;
        s.plan_extends = 10;
        s.plan_evictions = 5;
        s.observe_queue_depth(31);
        for us in [500u64, 1_500, 1_500, 80_000, 2_000_000, 37] {
            s.record_round(Duration::from_micros(us));
        }
        let slo = Some(Duration::from_millis(10));
        for us in [2_000u64, 2_100, 50_000, 1_999] {
            s.record_tenant_round(0, Duration::from_micros(us), slo);
        }
        for us in [700u64, 123_456] {
            s.record_tenant_round(7, Duration::from_micros(us), None);
        }
    });
    reg.record_bp_relaxation(12, 500);
    reg.record_bp_relaxation(3, 1_000_000);
    reg.record_bp_relaxation(3, 999);

    // The lane label is the recording thread's name, so record from a
    // named thread rather than the test harness's.
    let rec = Arc::new(SpanRecorder::new(ObsConfig::full().with_lane_capacity(16)));
    let lane = Arc::clone(&rec);
    std::thread::Builder::new()
        .name("golden\"lane".to_string())
        .spawn(move || {
            let name = lane.intern("e");
            for i in 0..40u64 {
                lane.record_span(SpanKind::Phase, name, i, i + 1, SpanMeta::default());
            }
        })
        .unwrap()
        .join()
        .unwrap();
    (reg, rec)
}

/// A page as what a scraper keeps of it: the sample multiset (names,
/// labels, values) and the `# TYPE` of each family. Line order is not part
/// of it.
fn page_content(text: &str) -> (Vec<PromSample>, BTreeMap<String, String>) {
    let mut samples = parse_prometheus(text).expect("page must parse");
    samples.sort_by(|a, b| {
        (&a.name, &a.labels, a.value.to_bits()).cmp(&(&b.name, &b.labels, b.value.to_bits()))
    });
    let types = text
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .map(|rest| {
            let (family, kind) = rest.split_once(' ').expect("TYPE line has a kind");
            (family.to_string(), kind.to_string())
        })
        .collect();
    (samples, types)
}

#[test]
fn page_equals_the_page_the_parent_commit_rendered() {
    let (reg, rec) = golden_state();
    let (samples, types) = page_content(&reg.render_prometheus(Some(&rec)));
    let (want_samples, want_types) = page_content(include_str!("data/parent_scrape.txt"));
    assert_eq!(types, want_types);
    assert_eq!(samples, want_samples);
}
