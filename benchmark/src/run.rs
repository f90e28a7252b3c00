//! One run of one workload: the end-to-end pass (spans off, ten metrics)
//! or the traced pass (the per-layer ledger), and the result line the
//! acceptance driver reads.

use std::io;

use sbgt_service::ApproxBackend;

use crate::host;
use crate::json::{self, Json};
use crate::lattice;
use crate::load::{Phase, Tally};
use crate::serve::{self, Pass, Served};
use crate::spec::spec;
use crate::stats;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Run length asked for; every phase size scales with it.
    pub seconds: f64,
    pub trace: bool,
}

impl RunArgs {
    /// The factor every reference phase size is multiplied by.
    pub fn scale(&self) -> f64 {
        self.seconds / spec().run_seconds
    }
}

/// What a run hands back: the result line's fields and the fuller record
/// written under `benchmark/out/`.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// In the order `BENCHMARK.json` lists them.
    pub metrics: Vec<(&'static str, f64)>,
    pub violations: Vec<String>,
    /// Phase-by-phase counts and timings, for the record.
    pub phases: Json,
    /// Cohorts compared bit for bit with the serial reference.
    pub checked_cohorts: usize,
    /// Traced pass: per span name, count, total and self time.
    pub layers: Json,
}

impl RunResult {
    /// The one line the contract asks for.
    pub fn result_line(&self) -> String {
        json::render(&json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", json::count(self.attempted)),
            ("failed", json::count(self.failed)),
            ("metrics", self.metrics_json()),
        ]))
    }

    pub fn metrics_json(&self) -> Json {
        json::obj(self.metrics.iter().map(|&(name, value)| {
            let unit = spec()
                .unit_of(name)
                .expect("every emitted metric is in the spec");
            (
                name,
                json::obj([("value", json::num(value)), ("unit", json::str(unit))]),
            )
        }))
    }

    /// Everything a reader needs to reproduce and place this run.
    pub fn record(&self, args: &RunArgs) -> Json {
        json::obj([
            ("workload", json::str(&args.workload)),
            ("trace", Json::Bool(args.trace)),
            ("seed", json::count(args.seed)),
            ("seconds", json::num(args.seconds)),
            ("scale", json::num(args.scale())),
            ("provenance", host::provenance()),
            ("correct", Json::Bool(self.correct)),
            ("attempted", json::count(self.attempted)),
            ("failed", json::count(self.failed)),
            (
                "violations",
                Json::Arr(self.violations.iter().map(json::str).collect()),
            ),
            ("checked_cohorts", json::count(self.checked_cohorts as u64)),
            ("phases", self.phases.clone()),
            ("layers", self.layers.clone()),
            ("metrics", self.metrics_json()),
        ])
    }
}

/// Specimens a ledger failed: refused, lost, or left unclassified.
pub fn failed_specimens(t: &Tally) -> u64 {
    let lost = t.offered.saturating_sub(t.classified + t.shed);
    t.shed + lost + t.non_terminal
}

/// The layer table of a traced run: per span name, how many spans, their
/// total time, and their self time (duration minus the cover of children).
pub fn layers_json(spans: &crate::spans::Spans) -> Json {
    Json::Arr(
        spans
            .summary()
            .into_iter()
            .map(|(name, count, total_ns, self_ns)| {
                json::obj([
                    ("span", json::str(name)),
                    ("count", json::count(count as u64)),
                    ("total_ms", json::num(total_ns as f64 / 1e6)),
                    ("self_ms", json::num(self_ns as f64 / 1e6)),
                ])
            })
            .collect(),
    )
}

pub fn phase_json(workload: &str, phase: &Phase) -> Json {
    let latencies = stats::sorted(phase.latencies_ms.clone());
    let (tail_ms, tail_percentile) = stats::tail(&latencies, 0.99);
    json::obj([
        ("workload", json::str(workload)),
        ("phase", json::str(phase.name)),
        ("offered", json::count(phase.counts.offered)),
        ("classified", json::count(phase.counts.classified)),
        ("shed", json::count(phase.counts.shed)),
        ("cohorts", json::count(phase.counts.cohorts)),
        ("tests", json::count(phase.counts.tests)),
        ("wall_s", json::num(phase.wall_s)),
        ("cpu_s", json::num(phase.cpu_s)),
        ("specimens_per_s", json::num(phase.specimens_per_s())),
        ("calls", json::count(phase.calls)),
        ("latency_samples", json::count(latencies.len() as u64)),
        ("latency_p50_ms", json::num(stats::median(&latencies))),
        ("latency_tail_ms", json::num(tail_ms)),
        ("latency_tail_percentile", json::num(tail_percentile)),
    ])
}

/// One live pass of a workload: one served run, or `approx-n128`'s two
/// (BP, then the particle filter).
pub fn live_pass(workload: &str, seed: u64, pass: Pass) -> io::Result<Vec<Served>> {
    Ok(match workload {
        "svc-n12" => vec![serve::serve_in_process(&serve::svc_n12(seed), seed, pass)?],
        "fabric-n12" => vec![serve::serve_fabric(&serve::fabric_n12(seed), seed, pass)?],
        "plan-w8" => vec![serve::serve_in_process(&serve::plan_w8(seed), seed, pass)?],
        "approx-n128" => [ApproxBackend::Bp, ApproxBackend::Particle]
            .into_iter()
            .map(|backend| serve::serve_in_process(&serve::approx_n128(seed, backend), seed, pass))
            .collect::<io::Result<_>>()?,
        "lattice-n20" => vec![lattice::run(seed, pass)?.served],
        other => return Err(io::Error::other(format!("unknown workload {other:?}"))),
    })
}

/// Specimens classified per second of wall over a pass's throughput
/// phases, and the CPU milliseconds one specimen cost over the same
/// interval.
pub fn throughput(runs: &[Served]) -> io::Result<(f64, f64)> {
    let phases: Vec<&Phase> = runs
        .iter()
        .map(Served::throughput_phase)
        .collect::<io::Result<_>>()?;
    let classified: f64 = phases.iter().map(|p| p.counts.classified as f64).sum();
    let wall_s: f64 = phases.iter().map(|p| p.wall_s).sum();
    let cpu_s: f64 = phases.iter().map(|p| p.cpu_s).sum();
    Ok((classified / wall_s, cpu_s * 1e3 / classified.max(1.0)))
}

/// Run the end-to-end pass of one workload: whole-phase figures, spans off.
pub fn end_to_end(args: &RunArgs) -> io::Result<RunResult> {
    let pass = Pass {
        scale: args.scale(),
        paced: false,
        trace: false,
        // Like every other size, fewer in a shorter run.
        setups: serve::scaled(serve::SETUPS, args.scale().min(1.0), 1, 1),
    };
    let workload = args.workload.as_str();
    let runs = live_pass(workload, args.seed, pass)?;
    let (specimens_per_s, cpu_ms_per_specimen) = throughput(&runs)?;
    let latencies = stats::sorted(
        runs.iter()
            .filter_map(Served::latency_phase)
            .flat_map(|p| p.latencies_ms.iter().copied())
            .collect(),
    );
    if latencies.is_empty() {
        return Err(io::Error::other("the run timed no cohort alone"));
    }
    let ledger = runs
        .iter()
        .fold(Tally::default(), |sum, r| sum.plus(&r.ledger));
    let failed = failed_specimens(&ledger);
    let values = [
        specimens_per_s,
        cpu_ms_per_specimen,
        stats::median(&latencies),
        stats::tail(&latencies, 0.99).0,
        1.0 - failed as f64 / ledger.offered.max(1) as f64,
        ledger.tests_per_specimen(),
        ledger.sensitivity(),
        ledger.specificity(),
        // `approx-n128` starts two services, each before its first timed
        // call.
        runs.iter().map(|r| r.setup_s).sum(),
        runs.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max),
    ];
    let names = [
        "specimens_per_s",
        "cpu_ms_per_specimen",
        "report_latency_p50_ms",
        "report_latency_p99_ms",
        "classified_fraction",
        "tests_per_specimen",
        "sensitivity",
        "specificity",
        "setup_s",
        "peak_rss_mb",
    ];

    let violations: Vec<String> = runs.iter().flat_map(|r| r.violations.clone()).collect();
    Ok(RunResult {
        correct: violations.is_empty() && failed == 0,
        attempted: ledger.offered,
        failed,
        metrics: names.into_iter().zip(values).collect(),
        violations,
        phases: Json::Arr(
            runs.iter()
                .flat_map(|r| r.phases.iter().map(|p| phase_json(workload, p)))
                .collect(),
        ),
        checked_cohorts: runs.iter().map(|r| r.checked_cohorts).sum(),
        layers: Json::Null,
    })
}
