//! Fleet observability over loopback: trace contexts propagate across
//! the wire, shard telemetry exports merge into one Prometheus page and
//! one Chrome trace, and — the tentpole assertion — a cohort relocated by
//! drain/handoff leaves spans on **two processes under one trace id**,
//! with reports that stay bit-for-bit identical to a serial run.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use sbgt_engine::obs::{parse_prometheus, validate_chrome_trace, NO_COHORT};
use sbgt_engine::{
    trace_id_for_cohort, EngineConfig, FaultStats, JobMetrics, SharedEngine, StageVariant,
    TraceLevel,
};
use sbgt_net::{
    FabricConfig, FabricRouter, FleetScraper, Request, Response, ShardClient, ShardServer,
};
use sbgt_service::{run_cohort_serial, CohortReport, CohortSpec, ServiceConfig, Specimen};

fn specimens(n: usize, seed: u64) -> Vec<Specimen> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let risk = 0.01 + rng.random::<f64>() * 0.12;
            Specimen {
                risk,
                infected: rng.random_bool(risk),
            }
        })
        .collect()
}

/// The family stem of a `_bucket`/`_sum`/`_count` series name.
fn histogram_stem(name: &str) -> Option<&str> {
    ["_bucket", "_sum", "_count"]
        .iter()
        .find_map(|suffix| name.strip_suffix(suffix))
}

fn traced_engine() -> SharedEngine {
    let engine = SharedEngine::new(EngineConfig::default().with_threads(2));
    engine.obs().set_level(TraceLevel::Full);
    engine
}

#[test]
fn relocated_cohort_stitches_one_trace_across_two_processes() {
    let config = ServiceConfig {
        workers: 2,
        batch_size: 12,
        dense_threshold: 13,
        base_seed: 4242,
        ..ServiceConfig::default()
    };
    let engine_a = traced_engine();
    let engine_b = traced_engine();
    let server_a = ShardServer::bind("127.0.0.1:0", engine_a, config.clone()).unwrap();
    let server_b = ShardServer::bind("127.0.0.1:0", engine_b, config.clone()).unwrap();

    let fabric_config = FabricConfig {
        batch_size: 12,
        base_seed: config.base_seed,
        ..FabricConfig::default()
    };
    let mut router = FabricRouter::connect(
        &[(0, server_a.local_addr()), (1, server_b.local_addr())],
        &fabric_config,
    )
    .unwrap();

    let sp = specimens(12 * 12, 29);
    for s in &sp {
        router.submit(0, *s).unwrap();
    }
    router.flush_all().unwrap();
    let placed = router.counters().placed_cohorts;
    assert_eq!(placed, 12);

    // Scrape both shards before the drain so shard 0's placement spans
    // are captured even though draining stops its service.
    let mut scraper = FleetScraper::new();
    scraper.poll(&mut router).unwrap();

    // Drain shard 0: its live cohorts relocate to shard 1, which records
    // an adoption span for each under the same deterministic trace id.
    let mut reports = router.drain_shard(0).unwrap();
    assert!(
        router.counters().relocated_cohorts > 0,
        "drain this early must catch live cohorts"
    );

    let deadline = Instant::now() + Duration::from_secs(60);
    while (reports.len() as u64) < placed {
        assert!(
            Instant::now() < deadline,
            "only {} of {placed} reports arrived",
            reports.len()
        );
        reports.extend(router.poll_reports().unwrap());
        std::thread::sleep(Duration::from_millis(2));
    }
    reports.sort_by_key(|r| r.cohort);

    // A second poll picks up everything recorded since the first; the
    // lane cursors must not re-ingest events the first poll already saw.
    scraper.poll(&mut router).unwrap();
    let events_after_second = scraper.total_events();
    scraper.poll(&mut router).unwrap();
    assert_eq!(
        scraper.total_events(),
        events_after_second,
        "an idle re-poll must not duplicate events"
    );
    assert_eq!(scraper.shard_count(), 2);

    // Both shards stamped net-layer spans; shard 1 additionally adopted.
    let names_a = scraper.shard_names(0);
    let names_b = scraper.shard_names(1);
    assert!(names_a.iter().any(|n| n == "net:place"));
    assert!(names_a.iter().any(|n| n == "net:trace-inherit"));
    assert!(names_b.iter().any(|n| n == "net:adopt"));

    // The tentpole: at least one cohort has spans on BOTH processes.
    let cohorts = |shard: u32| -> BTreeSet<u64> {
        scraper
            .shard_events(shard)
            .iter()
            .map(|e| e.meta.cohort)
            .filter(|&c| c != NO_COHORT)
            .collect()
    };
    let shared: Vec<u64> = cohorts(0).intersection(&cohorts(1)).copied().collect();
    assert!(
        !shared.is_empty(),
        "a relocated cohort must leave spans on both shards"
    );

    // The merged Chrome trace validates, names two processes, and carries
    // the shared cohort's deterministic trace id (the same 16-hex-digit
    // id whichever process recorded the span).
    let trace = scraper.render_chrome_trace();
    let summary = validate_chrome_trace(&trace).unwrap();
    assert_eq!(summary.processes, 2, "both shards appear as processes");
    let wanted = format!("{:016x}", trace_id_for_cohort(shared[0]));
    assert!(
        trace.contains(&wanted),
        "merged trace must carry the shared cohort's trace id {wanted}"
    );

    // Fleet Prometheus page: parses, is shard-labeled, and the merged
    // round-latency histogram is exactly the sum of the shard scrapes.
    let page = scraper.render_prometheus();
    let samples = parse_prometheus(&page).unwrap();
    assert!(samples
        .iter()
        .any(|s| s.labels.iter().any(|(k, v)| k == "shard" && v == "0")));
    assert!(samples
        .iter()
        .any(|s| s.labels.iter().any(|(k, v)| k == "shard" && v == "1")));
    let merged = scraper
        .merged_hists()
        .into_iter()
        .find(|h| h.name == "sbgt_service_round_latency_us" && h.labels.is_empty())
        .expect("fleet round-latency histogram present");
    let per_shard_total: u64 = [0u32, 1]
        .iter()
        .filter_map(|&s| scraper.shard_hist(s, "sbgt_service_round_latency_us"))
        .map(|h| h.count())
        .sum();
    assert!(per_shard_total > 0, "rounds ran on the fleet");
    assert_eq!(
        merged.hist.count(),
        per_shard_total,
        "fleet merge equals the sum of the individual shard scrapes"
    );
    let bucket_sum: f64 = samples
        .iter()
        .filter(|s| s.name == "sbgt_fleet_service_round_latency_us_count" && s.labels.is_empty())
        .map(|s| s.value)
        .sum();
    assert_eq!(bucket_sum as u64, per_shard_total);

    // A frame carries each histogram once, natively: no histogram series
    // among its scalar samples, and no family on both sides.
    for shard in router.all_shards() {
        let frame = router.obs_export(shard).unwrap();
        assert!(!frame.hists.is_empty());
        for s in &frame.samples {
            assert!(
                histogram_stem(&s.name).is_none(),
                "histogram series {} among shard {shard}'s scalar samples",
                s.name
            );
            assert!(
                frame.hists.iter().all(|h| h.name != s.name),
                "{} is both a sample and a histogram",
                s.name
            );
        }
    }
    // So on the fleet page every histogram has exactly two family stems:
    // its native name per shard, and its fleet merge.
    let stems: BTreeSet<&str> = samples
        .iter()
        .filter_map(|s| histogram_stem(&s.name))
        .collect();
    let mut expected = BTreeSet::new();
    for h in scraper.merged_hists() {
        expected.insert(format!("sbgt_fleet_{}", &h.name["sbgt_".len()..]));
        expected.insert(h.name);
    }
    assert_eq!(stems, expected.iter().map(String::as_str).collect());

    // Tracing never touches results: every report matches the serial
    // untraced reference bit-for-bit.
    let reference = SharedEngine::new(EngineConfig::default().with_threads(2));
    check_reports(&reports, &sp, &config, &reference);

    router.shutdown_all().unwrap();
    server_a.join().unwrap();
    server_b.join().unwrap();
}

fn check_reports(
    reports: &[CohortReport],
    sp: &[Specimen],
    config: &ServiceConfig,
    engine: &SharedEngine,
) {
    for (i, (report, chunk)) in reports.iter().zip(sp.chunks(12)).enumerate() {
        let spec = CohortSpec::from_specimens(i as u64, config.base_seed, chunk);
        let serial =
            run_cohort_serial(engine, &spec, config.model, config.session, config.policy());
        assert_eq!(report.cohort, i as u64);
        assert_eq!(report.outcome, serial, "cohort {i} diverged under tracing");
        for (a, b) in report.outcome.marginals.iter().zip(&serial.marginals) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

/// Scalars reach the frame as the registry's own `f64`, not through the
/// page's nine-decimal text: 4.464680097 s is a duration whose printed
/// form parses back to a neighbouring double.
#[test]
fn frame_scalars_carry_the_registry_bits() {
    let engine = SharedEngine::new(EngineConfig::default().with_threads(1));
    engine.metrics().record_job(JobMetrics {
        name: "update".to_string(),
        tasks: 1,
        task_time: Duration::new(4, 464_680_097),
        wall: Duration::new(4, 464_680_097),
        succeeded: true,
        variant: StageVariant::Immutable,
        faults: FaultStats::default(),
    });
    let server =
        ShardServer::bind("127.0.0.1:0", engine.clone(), ServiceConfig::default()).unwrap();
    let mut client = ShardClient::connect(server.local_addr()).unwrap();
    let Response::ObsFrame { frame } = client.call(&Request::ObsExport).unwrap() else {
        panic!("ObsExport must answer with an ObsFrame");
    };
    let agg = &engine.metrics().stage_aggregates()[0];
    for (name, want) in [
        ("sbgt_stage_wall_seconds_total", agg.wall.as_secs_f64()),
        ("sbgt_stage_task_seconds_total", agg.task_time.as_secs_f64()),
    ] {
        let got = frame.samples.iter().find(|s| s.name == name).unwrap();
        assert_eq!(got.label("stage"), Some("update"));
        assert_eq!(got.value.to_bits(), want.to_bits(), "{name}");
    }
    server.shutdown().unwrap();
}
