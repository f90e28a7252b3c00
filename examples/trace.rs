//! End-to-end telemetry: trace a surveillance run, export it, validate it.
//!
//! Runs a short specimen stream through the full service stack with
//! tracing at `Full` (explicitly, so the demo does not depend on the
//! `SBGT_TRACE` environment variable), then writes the two exporter
//! outputs and self-validates both with the in-repo parsers:
//!
//! * `target/obs/trace.json` — Chrome trace-event JSON. Open it in
//!   `chrome://tracing` or <https://ui.perfetto.dev>: one lane per
//!   engine/service thread, service rounds over session rounds over
//!   engine stages, counter tracks for ingress depth and live cohorts.
//! * `target/obs/metrics.prom` — Prometheus text exposition of the
//!   engine's metrics registry (stage families, fault counters, service
//!   counters, the round-latency histogram, and the span ring's own
//!   `sbgt_obs_*` health families).
//!
//! Run: `cargo run --release --example trace`

use std::time::Duration;

use sbgt_repro::sbgt_engine::obs::{parse_prometheus, render_chrome_trace, validate_chrome_trace};
use sbgt_repro::sbgt_engine::{EngineConfig, ObsConfig, SharedEngine};
use sbgt_repro::sbgt_service::{ServiceConfig, Specimen, SurveillanceService};
use sbgt_repro::sbgt_sim::traffic::{generate_arrivals, TrafficConfig};

fn main() {
    let engine = SharedEngine::new(
        EngineConfig::default()
            .with_threads(2)
            .with_obs(ObsConfig::full()),
    );
    let config = ServiceConfig {
        workers: 2,
        queue_capacity: 128,
        batch_size: 8,
        batch_deadline: Duration::from_millis(50),
        dense_threshold: 7,
        parts: 4,
        base_seed: 23,
        ..ServiceConfig::default()
    };

    let arrivals = generate_arrivals(&TrafficConfig::mixed(2000.0, 96, 5));
    let service = SurveillanceService::start(engine.clone(), config).unwrap();
    for a in &arrivals {
        service
            .submit(Specimen {
                risk: a.risk,
                infected: a.infected,
            })
            .unwrap();
    }
    let reports = service.drain();
    println!("classified {} cohort(s)", reports.len());

    let out_dir = std::path::Path::new("target/obs");
    std::fs::create_dir_all(out_dir).expect("create target/obs");

    // Chrome trace: render, self-validate, write.
    let trace = render_chrome_trace(engine.obs());
    let summary = validate_chrome_trace(&trace).expect("exported trace must validate");
    let trace_path = out_dir.join("trace.json");
    std::fs::write(&trace_path, &trace).expect("write trace.json");
    println!(
        "wrote {} ({} bytes): {} span(s), {} counter sample(s), {} mark(s) \
         across {} lane(s), max depth {}",
        trace_path.display(),
        trace.len(),
        summary.spans,
        summary.counters,
        summary.marks,
        summary.lanes,
        summary.max_depth,
    );

    // Prometheus scrape: render, self-validate, write.
    let prom = engine.render_prometheus();
    let samples = parse_prometheus(&prom).expect("exported scrape must parse");
    let figure = |name: &str| -> f64 {
        let family = samples.iter().filter(|s| s.name == name);
        family.map(|s| s.value).sum()
    };
    let prom_path = out_dir.join("metrics.prom");
    std::fs::write(&prom_path, &prom).expect("write metrics.prom");
    println!(
        "wrote {} ({} bytes): {} sample(s) — {} job(s), {} round(s), {} ring event(s) \
         across {} lane(s), {} overwritten",
        prom_path.display(),
        prom.len(),
        samples.len(),
        figure("sbgt_stage_jobs_total"),
        figure("sbgt_service_rounds_total"),
        figure("sbgt_obs_events"),
        figure("sbgt_obs_lanes"),
        figure("sbgt_obs_dropped_events_total"),
    );

    // The smoke gate: a traced service run must actually produce spans,
    // counters, and a consistent latency histogram.
    assert!(summary.spans > 0, "no spans recorded");
    assert!(summary.counters > 0, "no counter samples recorded");
    assert!(figure("sbgt_obs_events") > 0.0, "ring health not exported");
    let count = samples
        .iter()
        .find(|s| s.name == "sbgt_round_latency_seconds_count")
        .expect("latency histogram exported");
    let inf_bucket = samples
        .iter()
        .find(|s| s.name == "sbgt_round_latency_seconds_bucket" && s.label("le") == Some("+Inf"))
        .expect("+Inf bucket exported");
    assert_eq!(count.value, inf_bucket.value, "histogram count invariant");
    println!("\ntrace validated: OK");
}
