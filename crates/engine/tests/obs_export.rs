//! Exporter integration tests: a real engine run at `Full` trace level
//! must yield a Chrome trace that parses, pairs every B with its E, and
//! nests task spans inside their parent stage span — plus a Prometheus
//! scrape that round-trips through the text parser.

use sbgt_engine::obs::{
    parse_json, parse_prometheus, render_chrome_trace, validate_chrome_trace, JsonValue, ObsConfig,
    SpanKind, SpanMeta, TraceLevel,
};
use sbgt_engine::{Dataset, Engine, EngineConfig};

/// Fault-free traced engine: speculation/retry losers can outlive their
/// stage span, so nesting assertions need a clean fault configuration.
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
    let doubled = ds.map_partitions(e, |_, part| part.iter().map(|x| x * 2).collect());
    assert_eq!(doubled.collect().len(), 64);
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
    let text = e.metrics().render_prometheus();
    let samples = parse_prometheus(&text).expect("scrape must parse");
    assert!(!samples.is_empty());
    let jobs: f64 = samples
        .iter()
        .filter(|s| s.name == "sbgt_stage_jobs_total")
        .map(|s| s.value)
        .sum();
    assert_eq!(jobs as usize, e.metrics().job_count());
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
