//! The traced pass: the per-layer ledger.
//!
//! Every number is a harness span around a call into a layer's public
//! functions, or a count read from a public result type. The program's
//! own `SBGT_TRACE` stays off. Three sources feed the ledger:
//!
//! * **The invoked workload, live, spans on**, at [`OWN_SHARE`] of its
//!   end-to-end size, preceded by an untraced pass of the same size for
//!   `trace.overhead_ratio`. Each workload owns the layer numbers its live
//!   pass produces ([`live_layers`]); a layer's numbers are authoritative
//!   in the traced run of the workload that exercises it.
//! * **Layer replay**: seeded cohorts driven serially, on one thread,
//!   through each layer's public functions with a span per call, mirroring
//!   `run_round_inner`, and checked against `run_cohort_serial`.
//! * **Kernel probes** on a warmed posterior at N=12 and N=20, plus the
//!   codec, the ring, the WFQ queue and the engine's stage dispatch.
//!
//! The contract wants every per-layer name in every traced run, so the
//! numbers the other four workloads own are filled in from a probe pass of
//! each at [`PROBE_SHARE`]. Probe ledgers are kept in
//! `out/probe-ledgers.json` under the seed and run length that made them:
//! the five traced runs of one `--all` set probe each workload once, not
//! four times over.

use std::collections::BTreeMap;
use std::io;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use sbgt::{ExecMode, SbgtConfig, SbgtSession, SessionOutcome, SessionSnapshot, ShardedPosterior};
use sbgt_bayes::{analyze, classify_marginals, CohortClassification, Prior};
use sbgt_engine::{Dataset, SharedEngine, TraceContext};
use sbgt_lattice::{DensePosterior, SparsePosterior, State};
use sbgt_net::{HashRing, Request, Response};
use sbgt_response::{BinaryDilutionModel, ResponseModel};
use sbgt_select::{
    select_halving_prefix, select_halving_prefix_par, select_stage_lookahead_fused,
    select_stage_lookahead_par, LookaheadConfig,
};
use sbgt_service::{
    lab_outcome, run_cohort_serial, ApproxBackend, CohortActor, CohortCheckpoint, CohortReport,
    CohortSpec, PlanCache, RiskQuantizer, ServiceConfig, Specimen, WfqScheduler,
};

use crate::host;
use crate::json::{self, Json};
use crate::lattice::{self, LatticeRun, Mode};
use crate::load::{same_bits, Phase};
use crate::run::{
    failed_specimens, layers_json, live_pass, phase_json, throughput, RunArgs, RunResult,
};
use crate::serve::{self, Pass, Plan, Served, ENGINE_THREADS, SHARDS};
use crate::spans::Spans;
use crate::spec::spec;
use crate::stats;
use crate::target::quiet_engine;
use crate::traffic::{derive_seed, BatcherMirror, Traffic};

/// Share of its end-to-end size the invoked workload runs at when traced.
const OWN_SHARE: f64 = 0.25;

/// `plan-w8` must cross its cache's node budget to show what the ledger
/// is for, and a quarter of its run does not get there.
const PLAN_OWN_SHARE: f64 = 0.5;

/// Share a workload runs at when another workload's traced run probes it.
const PROBE_SHARE: f64 = 0.1;

/// N=12 cohorts the service and core replays drive at scale 1.
const REPLAY_COHORTS: usize = 2048;

/// The same for `plan-w8`, whose replayed rounds each run a width-8
/// look-ahead with no warm cache in front of it: an eighth as many
/// cohorts cost about as much.
const PLAN_REPLAY_COHORTS: usize = 256;

/// Specimens in each of the two windows `plan-w8` is compared over.
const PLAN_WINDOW_SPECIMENS: u64 = 20_000;

/// N=128 cohorts each approximate backend's replay drives at scale 1.
const APPROX_REPLAY_COHORTS: usize = 32;

/// N=20 cohorts the serial baseline classifies at scale 1.
const SERIAL_COHORTS: usize = 16;

/// Operations timed together where one alone is shorter than the clock.
const NS_BATCH: usize = 64;

/// Where probe ledgers are kept between the traced runs of one set.
pub const PROBE_FILE: &str = "probe-ledgers.json";

/// Layer numbers by name. Names under `aux.` are not in the contract; they
/// carry what a derived metric needs from another workload's pass.
#[derive(Debug, Clone, Default, PartialEq)]
struct Ledger(BTreeMap<String, f64>);

impl Ledger {
    /// A ratio over nothing reads 0, so that a ledger always renders.
    fn insert(&mut self, name: &str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name.to_string(), value);
    }

    fn get(&self, name: &str) -> io::Result<f64> {
        self.0
            .get(name)
            .copied()
            .ok_or_else(|| io::Error::other(format!("the ledger did not produce {name}")))
    }

    fn absorb(&mut self, other: Ledger) {
        self.0.extend(other.0);
    }

    fn to_json(&self) -> Json {
        json::obj(self.0.iter().map(|(k, &v)| (k.as_str(), json::num(v))))
    }

    fn from_json(value: &Json) -> Ledger {
        Ledger(
            json::entries(value)
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_num()?)))
                .collect(),
        )
    }
}

/// Median nanoseconds of one `op` over `samples` timings of `batch` calls
/// each: [`NS_BATCH`] where one call is shorter than the clock, 1 else.
fn median_ns(samples: usize, batch: usize, mut op: impl FnMut()) -> f64 {
    let per_op = (0..samples)
        .map(|_| {
            let began = Instant::now();
            for _ in 0..batch {
                op();
            }
            began.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect::<Vec<f64>>();
    stats::median_of(&per_op)
}

// ----------------------------------------------------------- layer replay --

/// Seeded batches as the service's batcher forms them (the harness's
/// mirror of it seals them), as raw specimens: the replay times
/// `CohortSpec::from_specimens` itself.
fn batches(plan: &Plan, cohorts: usize, seed: u64) -> Vec<(u32, Vec<Specimen>)> {
    let traffic = Traffic::closed(
        &plan.classes,
        cohorts * plan.batch() * 2,
        derive_seed(seed, 5),
    );
    let mut mirror = BatcherMirror::new(plan.batch(), plan.config.base_seed);
    (0..traffic.len())
        .filter_map(|i| {
            let (tenant, specimen) = traffic.get(i);
            mirror.push(tenant, specimen)
        })
        .take(cohorts)
        .map(|spec| {
            let specimens = spec
                .risks
                .iter()
                .enumerate()
                .map(|(i, &risk)| Specimen {
                    risk,
                    infected: spec.truth.contains(i),
                })
                .collect();
            (spec.tenant, specimens)
        })
        .collect()
}

struct Replayed {
    specimens: u64,
    cohorts: u64,
    rounds: u64,
    wall_s: f64,
    cpu_s: f64,
    checkpoint_bytes: Vec<f64>,
}

/// Drive batches through the `service` layer's public per-cohort
/// functions — `CohortSpec::from_specimens`, `CohortActor::new`, one
/// `run_round` at a time — as the batcher and a worker would, minus the
/// queues, threads and wake-ups between them.
fn replay_service(
    engine: &SharedEngine,
    config: &ServiceConfig,
    batches: &[(u32, Vec<Specimen>)],
    prefix: Prefix,
    spans: &mut Spans,
    violations: &mut Vec<String>,
) -> Replayed {
    let cache = (config.plan_cache_nodes > 0).then(|| PlanCache::new(config.plan_cache_nodes));
    let mut replayed = Replayed {
        specimens: 0,
        cohorts: 0,
        rounds: 0,
        wall_s: 0.0,
        cpu_s: 0.0,
        checkpoint_bytes: Vec::new(),
    };
    let began = Instant::now();
    let cpu_before = host::cpu_seconds(std::process::id());
    for (id, (tenant, batch)) in batches.iter().enumerate() {
        let id = id as u64;
        let cohort_span = spans.enter(prefix.cohort, id);
        let spec = spans.time(prefix.batch_form, id, || {
            CohortSpec::from_specimens(id, config.base_seed, batch).with_tenant(*tenant)
        });
        let mut actor = spans.time(prefix.open, id, || {
            let mut actor = CohortActor::new(
                engine,
                spec.clone(),
                config.model,
                config.session,
                config.policy(),
            );
            if let Some(cache) = &cache {
                actor.attach_plan_cache(cache);
            }
            actor
        });
        let mut rounds = 0;
        let outcome = loop {
            // Freeze a cohort now and then, mid-run, as a handoff would.
            if rounds == 2 && id.is_multiple_of(8) {
                let checkpoint = actor.checkpoint();
                let bytes = spans.time(prefix.checkpoint_encode, id, || checkpoint.to_bytes());
                let decoded = spans.time(prefix.checkpoint_decode, id, || {
                    CohortCheckpoint::from_bytes(&bytes)
                });
                if decoded.ok().as_ref() != Some(&checkpoint) {
                    violations.push(format!("cohort {id}: checkpoint does not round-trip"));
                }
                replayed.checkpoint_bytes.push(bytes.len() as f64);
            }
            rounds += 1;
            let step = spans.time(prefix.round, id, || actor.run_round(engine));
            if let Some(outcome) = step.finished() {
                break outcome;
            }
        };
        spans.exit(cohort_span);
        replayed.rounds += rounds;
        replayed.cohorts += 1;
        replayed.specimens += batch.len() as u64;
        if id.is_multiple_of(crate::load::SAMPLE_EVERY) {
            let serial =
                run_cohort_serial(engine, &spec, config.model, config.session, config.policy());
            if !same_bits(&outcome, &serial) {
                violations.push(format!(
                    "service replay of cohort {id} differs from run_cohort_serial"
                ));
            }
        }
    }
    replayed.wall_s = began.elapsed().as_secs_f64();
    replayed.cpu_s = host::cpu_seconds(std::process::id()) - cpu_before;
    replayed
}

/// Span names of one service-layer replay.
#[derive(Clone, Copy)]
struct Prefix {
    cohort: &'static str,
    batch_form: &'static str,
    open: &'static str,
    round: &'static str,
    checkpoint_encode: &'static str,
    checkpoint_decode: &'static str,
}

const SERVICE: Prefix = Prefix {
    cohort: "service.cohort",
    batch_form: "service.batch_form",
    open: "service.cohort_open",
    round: "service.round",
    checkpoint_encode: "service.checkpoint_encode",
    checkpoint_decode: "service.checkpoint_decode",
};

const BP: Prefix = Prefix {
    cohort: "approx.bp_cohort",
    batch_form: "approx.bp_batch_form",
    open: "approx.bp_open",
    round: "approx.bp_round",
    checkpoint_encode: "approx.bp_checkpoint_encode",
    checkpoint_decode: "approx.bp_checkpoint_decode",
};

const PARTICLE: Prefix = Prefix {
    cohort: "approx.particle_cohort",
    batch_form: "approx.particle_batch_form",
    open: "approx.particle_open",
    round: "approx.particle_round",
    checkpoint_encode: "approx.particle_checkpoint_encode",
    checkpoint_decode: "approx.particle_checkpoint_decode",
};

/// One dense cohort driven through `core`'s public session functions the
/// way `SbgtSession::run_round_inner` does: marginals → classify → select
/// → lab → observe, a span per call.
fn replay_core_cohort(
    spec: &CohortSpec,
    model: BinaryDilutionModel,
    config: SbgtConfig,
    risk_buckets: u32,
    mut snapshot_bytes: Option<&mut Vec<f64>>,
    spans: &mut Spans,
    violations: &mut Vec<String>,
) -> SessionOutcome {
    let id = spec.id;
    let cohort_span = spans.enter("core.cohort", id);
    let risks = RiskQuantizer::new(risk_buckets).snap_all(&spec.risks);
    let mut session = spans.time("core.session_new", id, || {
        SbgtSession::new(Prior::from_risks(&risks), model, config)
    });
    let mut test = 0;
    let classification = loop {
        if let (Some(sizes), 2) = (snapshot_bytes.as_deref_mut(), session.stages()) {
            let snap = session.snapshot();
            let bytes = spans.time("core.snapshot_encode", id, || snap.to_bytes());
            let decoded = spans.time("core.snapshot_decode", id, || {
                SessionSnapshot::from_bytes(&bytes)
            });
            if decoded.ok().as_ref() != Some(&snap) {
                violations.push(format!("cohort {id}: session snapshot does not round-trip"));
            }
            sizes.push(bytes.len() as f64);
        }
        let (marginals, classification): (Vec<f64>, CohortClassification) =
            spans.time("core.classify", id, || {
                let marginals = session.marginals();
                let classification = classify_marginals(&marginals, config.rule);
                (marginals, classification)
            });
        if classification.is_terminal() || session.stages() >= config.max_stages {
            break classification;
        }
        let selections = spans.time("core.select", id, || {
            let mut order = classification.undetermined();
            order.sort_by(|&a, &b| marginals[a].total_cmp(&marginals[b]).then(a.cmp(&b)));
            let posterior = session.posterior();
            if config.stage_width <= 1 {
                match config.exec {
                    ExecMode::Serial => {
                        select_halving_prefix(posterior, &order, config.max_pool_size)
                    }
                    ExecMode::Parallel(par) => {
                        select_halving_prefix_par(posterior, &order, config.max_pool_size, par)
                    }
                }
                .into_iter()
                .collect()
            } else {
                let lookahead = config.lookahead();
                match config.exec {
                    ExecMode::Serial => {
                        select_stage_lookahead_fused(posterior, &model, &order, &lookahead)
                    }
                    ExecMode::Parallel(par) => {
                        select_stage_lookahead_par(posterior, &model, &order, &lookahead, par)
                    }
                }
                .expect("stage width validated by SbgtConfig")
            }
        });
        if selections.is_empty() {
            break classification;
        }
        let observations: Vec<(State, bool)> = selections
            .iter()
            .map(|s| {
                let outcome = lab_outcome(spec, test, s.pool, &model);
                test += 1;
                (s.pool, outcome)
            })
            .collect();
        let observed = spans.time("core.observe", id, || session.observe_stage(&observations));
        if observed.is_err() {
            break session.classify();
        }
    };
    let outcome = SessionOutcome {
        tests: session.history().len(),
        stages: session.stages(),
        subjects: session.n_subjects(),
        classification,
        marginals: session.marginals(),
    };
    spans.exit(cohort_span);
    outcome
}

// ---------------------------------------------------------- kernel probes --

/// A posterior a few negative pools into a session: warmed, not uniform.
fn warmed(n: usize, seed: u64) -> (Vec<f64>, DensePosterior, Vec<usize>, State) {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x7E57 + n as u64));
    let risks: Vec<f64> = (0..n).map(|_| 0.01 + rng.random::<f64>() * 0.1).collect();
    let model = BinaryDilutionModel::pcr_like();
    let mut posterior = Prior::from_risks(&risks).to_dense();
    for round in 0..3 {
        let pool = State::from_subjects((0..n).filter(|i| i % 3 == round));
        let table = model.likelihood_table(false, pool.rank());
        posterior.mul_likelihood_fused(pool, &table);
        posterior.normalize();
    }
    let marginals = posterior.marginals();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| marginals[a].total_cmp(&marginals[b]).then(a.cmp(&b)));
    let pool = State::from_subjects(order.iter().copied().take(n / 2));
    (risks, posterior, order, pool)
}

fn kernel_probe(n: usize, seed: u64, engine: &SharedEngine, ledger: &mut Ledger) {
    let name = |stem: &str| format!("{stem}_n{n}");
    let (update, marginals, prefix, fused) = (
        name("lattice.update_ns_per_state"),
        name("lattice.marginals_ns_per_state"),
        name("lattice.prefix_mass_ns_per_state"),
        name("lattice.fused_round_ns_per_state"),
    );
    let (sparse_update, sparse_fraction, bytes) = (
        name("lattice.sparse_update_ns_per_entry"),
        name("lattice.sparse_support_fraction"),
        name("lattice.computed_bytes_per_state"),
    );
    let (prior_dense, analyze_us) = (
        name("bayes.prior_to_dense_us_p50"),
        name("bayes.analyze_us_p50"),
    );
    let (risks, posterior, order, pool) = warmed(n, seed);
    let model = BinaryDilutionModel::pcr_like();
    let table = model.likelihood_table(false, pool.rank());
    let states = posterior.len() as f64;
    // Enough repetitions for a steady median where a pass is microseconds,
    // few where it is milliseconds.
    let reps = if n <= 12 { 200 } else { 7 };
    let mut scratch = posterior.clone();
    ledger.insert(
        &update,
        median_ns(reps, 1, || {
            // Mass shrinks by a bounded factor per pass; far from underflow
            // over these few hundred passes.
            std::hint::black_box(scratch.mul_likelihood_fused(pool, &table));
        }) / states,
    );
    ledger.insert(
        &marginals,
        median_ns(reps, 1, || {
            std::hint::black_box(posterior.marginals());
        }) / states,
    );
    ledger.insert(
        &prefix,
        median_ns(reps, 1, || {
            std::hint::black_box(posterior.prefix_negative_masses(&order));
        }) / states,
    );
    let mut sharded = ShardedPosterior::from_dense(&posterior, lattice::PARTS);
    ledger.insert(
        &fused,
        median_ns(reps, 1, || {
            std::hint::black_box(
                sharded
                    .fused_round(engine, &model, pool, false, &order)
                    .expect("a negative pool is never impossible under a noisy assay"),
            );
        }) / states,
    );
    // One in-place pass reads and writes every state's f64 once; the
    // marginal and prefix accumulators stay in cache. Computed from array
    // sizes, not measured.
    ledger.insert(&bytes, 2.0 * std::mem::size_of::<f64>() as f64);

    let sparse = SparsePosterior::from_dense(&posterior, 1e-9);
    ledger.insert(&sparse_fraction, sparse.support() as f64 / states);
    let mut sparse_scratch = sparse.clone();
    let entries = sparse.support().max(1) as f64;
    ledger.insert(
        &sparse_update,
        median_ns(reps, 1, || {
            std::hint::black_box(sparse_scratch.mul_likelihood_fused(pool, &table));
        }) / entries,
    );
    ledger.insert(
        &prior_dense,
        median_ns(reps, 1, || {
            std::hint::black_box(Prior::from_risks(&risks).to_dense());
        }) / 1e3,
    );
    ledger.insert(
        &analyze_us,
        median_ns(reps, 1, || {
            std::hint::black_box(analyze(&posterior, 10));
        }) / 1e3,
    );
}

fn select_probe(seed: u64, ledger: &mut Ledger) {
    let (_, posterior, order, _) = warmed(12, seed);
    let model = BinaryDilutionModel::pcr_like();
    ledger.insert(
        "select.halving_us_p50",
        median_ns(400, 1, || {
            std::hint::black_box(select_halving_prefix(&posterior, &order, 16));
        }) / 1e3,
    );
    let lookahead = LookaheadConfig {
        width: 8,
        max_pool_size: 16,
    };
    ledger.insert(
        "select.lookahead_us_p50",
        median_ns(60, 1, || {
            std::hint::black_box(
                select_stage_lookahead_fused(&posterior, &model, &order, &lookahead)
                    .expect("width 8 is a valid stage width"),
            );
        }) / 1e3,
    );
}

fn engine_probe(ledger: &mut Ledger) -> SharedEngine {
    let starts: Vec<f64> = (0..5)
        .map(|_| {
            let began = Instant::now();
            drop(quiet_engine(ENGINE_THREADS));
            began.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ledger.insert("engine.pool_start_ms", stats::median_of(&starts));
    let engine = quiet_engine(ENGINE_THREADS);
    // The cost of a stage with nothing in it: four one-element partitions.
    let mut dataset = Dataset::from_partitions(vec![vec![0u8]; 4]);
    let dispatch: Vec<f64> = (0..2000)
        .map(|_| {
            let began = Instant::now();
            std::hint::black_box(dataset.map_partitions_in_place(&engine, |_, _| ()));
            began.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    ledger.insert("engine.stage_dispatch_us_p50", stats::median_of(&dispatch));
    engine
}

/// Frame sizes the wire accounting needs, from the codec probe.
struct FrameBytes {
    place_request: f64,
    accepted_response: f64,
    poll_request: f64,
    empty_reports: f64,
    per_report: f64,
}

/// Time the frame codec and the ring on a real frame: the first seeded
/// `svc-n12` cohort and the report the serial reference gives it.
fn codec_probe(seed: u64, engine: &SharedEngine, ledger: &mut Ledger) -> FrameBytes {
    let plan = serve::svc_n12(seed);
    let config = &plan.config;
    let (tenant, batch) = &batches(&plan, 1, seed)[0];
    let spec = &CohortSpec::from_specimens(0, config.base_seed, batch).with_tenant(*tenant);
    let report = &CohortReport {
        cohort: spec.id,
        tenant: spec.tenant,
        subjects: spec.n_subjects(),
        recovered_rounds: 0,
        outcome: run_cohort_serial(engine, spec, config.model, config.session, config.policy()),
    };
    let place = Request::PlaceCohort {
        spec: spec.clone(),
        trace: Some(TraceContext::for_cohort(spec.id)),
    };
    let place_bytes = place.encode();
    let reports = Response::Reports {
        reports: vec![report.clone()],
    };
    let reports_bytes = reports.encode();
    let frames = FrameBytes {
        place_request: place_bytes.len() as f64,
        accepted_response: Response::Accepted {
            accepted: 1,
            shed: 0,
            reason: None,
        }
        .encode()
        .len() as f64,
        poll_request: Request::PollReports.encode().len() as f64,
        empty_reports: Response::Reports {
            reports: Vec::new(),
        }
        .encode()
        .len() as f64,
        per_report: 0.0,
    };
    let frames = FrameBytes {
        per_report: reports_bytes.len() as f64 - frames.empty_reports,
        ..frames
    };
    ledger.insert("net.place_frame_bytes", frames.place_request);
    ledger.insert("net.report_frame_bytes_per_cohort", frames.per_report);
    ledger.insert(
        "net.place_encode_ns_p50",
        median_ns(200, NS_BATCH, || {
            std::hint::black_box(place.encode());
        }),
    );
    ledger.insert(
        "net.place_decode_ns_p50",
        median_ns(200, NS_BATCH, || {
            std::hint::black_box(Request::decode(&place_bytes).expect("own frame decodes"));
        }),
    );
    ledger.insert(
        "net.reports_encode_ns_p50",
        median_ns(200, NS_BATCH, || {
            std::hint::black_box(reports.encode());
        }),
    );
    ledger.insert(
        "net.reports_decode_ns_p50",
        median_ns(200, NS_BATCH, || {
            std::hint::black_box(Response::decode(&reports_bytes).expect("own frame decodes"));
        }),
    );
    let ring = HashRing::with_shards(0..SHARDS);
    let mut key = spec.seed;
    ledger.insert(
        "net.ring_lookup_ns_p50",
        median_ns(200, NS_BATCH, || {
            key = key.wrapping_add(1);
            std::hint::black_box(ring.shard_for(key).expect("the ring has shards"));
        }),
    );
    frames
}

fn wfq_probe(ledger: &mut Ledger) {
    let queue: WfqScheduler<Box<u64>> = WfqScheduler::new([(0, 2), (1, 1)]);
    let mut item = 0u64;
    ledger.insert(
        "service.wfq_push_pop_ns_p50",
        median_ns(400, NS_BATCH, || {
            item += 1;
            queue.push((item % 2) as u32, Box::new(item));
            std::hint::black_box(queue.pop());
        }),
    );
}

// ----------------------------------------------- what each workload owns --

/// Durations in ns of `name` spans directly under the last span called
/// `parent` (the warm-up is a sat phase too, and comes first), ascending.
fn under(spans: &Spans, parent: &str, name: &str) -> Vec<f64> {
    let Some(parent) = spans.spans().iter().rposition(|s| s.name == parent) else {
        return Vec::new();
    };
    stats::sorted(
        spans
            .spans()
            .iter()
            .filter(|s| s.parent == Some(parent as u32) && s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect(),
    )
}

fn latency_metrics(ledger: &mut Ledger, paced: &Phase, names: [&str; 3]) {
    let latencies = stats::sorted(paced.latencies_ms.clone());
    ledger.insert(names[0], stats::median(&latencies));
    ledger.insert(names[1], stats::tail(&latencies, 0.99).0);
    ledger.insert(
        names[2],
        paced.counts.shed as f64 / paced.counts.offered.max(1) as f64,
    );
}

/// Throughput over the first and the last `window` specimens of a phase.
fn first_and_last_window(phase: &Phase, window: u64) -> (f64, f64) {
    let total = phase.counts.classified;
    let window = window.min(total / 2).max(1);
    let marks = &phase.progress;
    let crossing = |count: u64| {
        marks
            .iter()
            .find(|m| m.classified >= count)
            .or(marks.last())
            .map_or((phase.wall_s, total), |m| (m.at_s, m.classified))
    };
    let (t_first, n_first) = crossing(window);
    let (t_last, n_last) = crossing(total - window);
    let first = n_first as f64 / t_first.max(1e-9);
    let last = (total - n_last) as f64 / (phase.wall_s - t_last).max(1e-9);
    (first, last)
}

/// `svc-n12`: the client boundary of the in-process service.
fn svc_layers(s: &Served) -> io::Result<Ledger> {
    let mut ledger = Ledger::default();
    let (solo, sat, paced, close) = (
        s.need("solo")?,
        s.need("sat")?,
        s.need("paced")?,
        s.need("close")?,
    );
    let lag = stats::sorted(paced.lag_ms.clone());
    ledger.insert("sim.gen_lag_p99_ms", stats::percentile(&lag, 0.99));
    let submits = under(&s.spans, "phase.sat", "service.submit");
    ledger.insert(
        "service.submit_wait_us_per_specimen",
        submits.iter().sum::<f64>() / 1e3 / sat.counts.offered.max(1) as f64,
    );
    ledger.insert(
        "service.take_completed_us_p50",
        stats::median(&under(&s.spans, "phase.sat", "service.take_completed")) / 1e3,
    );
    ledger.insert("service.drain_tail_ms", close.wall_s * 1e3);
    ledger.insert("service.start_ms", s.start_s * 1e3);
    latency_metrics(
        &mut ledger,
        paced,
        [
            "service.paced_latency_p50_ms",
            "service.paced_latency_p99_ms",
            "service.paced_shed_fraction",
        ],
    );
    ledger.insert("aux.svc_sat_specimens_per_s", sat.specimens_per_s());
    ledger.insert("aux.svc_sat_cpu_ms_per_specimen", sat.cpu_ms_per_specimen());
    ledger.insert("aux.svc_solo_p50_ms", stats::median_of(&solo.latencies_ms));
    Ok(ledger)
}

/// `fabric-n12`: what the wire, the reactor and the router add.
fn fabric_layers(f: &Served, frames: &FrameBytes) -> io::Result<Ledger> {
    let mut ledger = Ledger::default();
    let (solo, sat, paced) = (f.need("solo")?, f.need("sat")?, f.need("paced")?);
    let place = under(&f.spans, "phase.solo", "net.place");
    ledger.insert("net.place_rtt_us_p50", stats::median(&place) / 1e3);
    ledger.insert("net.place_rtt_us_p99", stats::tail(&place, 0.99).0 / 1e3);
    let poll_rtt_ns = stats::median(&under(&f.spans, "phase.solo", "net.poll")) / f64::from(SHARDS);
    ledger.insert("net.poll_rtt_us_p50", poll_rtt_ns / 1e3);
    ledger.insert(
        "net.ping_rtt_us_p50",
        stats::median(&f.spans.durations_ns("net.ping")) / 1e3,
    );
    latency_metrics(
        &mut ledger,
        paced,
        [
            "net.paced_latency_p50_ms",
            "net.paced_latency_p99_ms",
            "net.paced_shed_fraction",
        ],
    );
    let cohorts = sat.counts.cohorts.max(1) as f64;
    let specimens = sat.counts.classified.max(1) as f64;
    ledger.insert("net.calls_per_cohort", sat.calls as f64 / cohorts);
    // Computed from frame sizes: every cohort is one place exchange and
    // one report; every other call is a poll that came back empty or
    // carried reports already counted.
    let polls = (sat.calls as f64 - cohorts).max(0.0);
    let wire = cohorts * (frames.place_request + frames.accepted_response + frames.per_report)
        + polls * (frames.poll_request + frames.empty_reports);
    ledger.insert("net.wire_bytes_per_specimen", wire / specimens);
    ledger.insert(
        "net.router_cpu_ms_per_kspecimen",
        sat.own_cpu_s * 1e6 / specimens,
    );
    ledger.insert(
        "net.shard_cpu_ms_per_kspecimen",
        (sat.cpu_s - sat.own_cpu_s) * 1e6 / specimens,
    );
    ledger.insert("net.connect_ms", f.start_s * 1e3);
    let handoff = f
        .handoff
        .as_ref()
        .ok_or_else(|| io::Error::other("the fabric pass made no handoff"))?;
    ledger.insert("net.drain_handoff_ms", handoff.ms);
    ledger.insert("net.relocated_cohorts", handoff.relocated_cohorts as f64);
    ledger.insert("aux.fabric_sat_specimens_per_s", sat.specimens_per_s());
    ledger.insert(
        "aux.fabric_solo_p50_ms",
        stats::median_of(&solo.latencies_ms),
    );
    ledger.insert(
        "aux.fabric_round_trip_ns",
        stats::median(&place) + poll_rtt_ns,
    );
    Ok(ledger)
}

/// `plan-w8`: the plan cache over a run that outgrows it.
fn plan_layers(p: &Served, scale: f64) -> io::Result<Ledger> {
    let mut ledger = Ledger::default();
    let sat = p.need("sat")?;
    let cache = p
        .plan_stats
        .ok_or_else(|| io::Error::other("the plan-w8 pass owned no plan cache"))?;
    let lookups = (cache.hits + cache.misses).max(1) as f64;
    ledger.insert("select.plancache_hit_ratio", cache.hits as f64 / lookups);
    ledger.insert("select.plancache_misses", cache.misses as f64);
    ledger.insert("select.plancache_evictions", cache.evictions as f64);
    let window = (PLAN_WINDOW_SPECIMENS as f64 * scale).round().max(12.0) as u64;
    let (first, last) = first_and_last_window(sat, window);
    ledger.insert("select.plan_first_window_specimens_per_s", first);
    ledger.insert("select.plan_last_window_specimens_per_s", last);
    ledger.insert(
        "aux.plan_sat_cpu_ms_per_specimen",
        sat.cpu_ms_per_specimen(),
    );
    Ok(ledger)
}

/// `approx-n128`: each backend live (throughput, accuracy) and replayed
/// (rounds, checkpoints).
fn approx_layers(
    served: &[Served],
    seed: u64,
    scale: f64,
    replay: &mut Replay,
) -> io::Result<Ledger> {
    let mut ledger = Ledger::default();
    let [bp, particle] = served else {
        return Err(io::Error::other("approx-n128 runs two backends"));
    };
    for (served, backend, prefix, names) in [
        (
            bp,
            ApproxBackend::Bp,
            BP,
            [
                "approx.bp_specimens_per_s",
                "approx.bp_sensitivity",
                "approx.bp_round_us_p50",
                "approx.bp_rounds_per_cohort",
                "approx.bp_checkpoint_bytes_p50",
            ],
        ),
        (
            particle,
            ApproxBackend::Particle,
            PARTICLE,
            [
                "approx.particle_specimens_per_s",
                "approx.particle_sensitivity",
                "approx.particle_round_us_p50",
                "approx.particle_rounds_per_cohort",
                "approx.particle_checkpoint_bytes_p50",
            ],
        ),
    ] {
        ledger.insert(names[0], served.need("sat")?.specimens_per_s());
        ledger.insert(names[1], served.ledger.sensitivity());
        let plan = serve::approx_n128(seed, backend);
        let cohorts = serve::scaled(APPROX_REPLAY_COHORTS, scale, 1, 1);
        let replayed = replay_service(
            &replay.engine,
            &plan.config,
            &batches(&plan, cohorts, seed),
            prefix,
            &mut replay.spans,
            &mut replay.violations,
        );
        ledger.insert(
            names[2],
            stats::median(&replay.spans.durations_ns(prefix.round)) / 1e3,
        );
        ledger.insert(
            names[3],
            replayed.rounds as f64 / replayed.cohorts.max(1) as f64,
        );
        ledger.insert(names[4], stats::median_of(&replayed.checkpoint_bytes));
    }
    Ok(ledger)
}

/// `lattice-n20`: one N=20 cohort per exact mode, and the plain serial
/// baseline beside them.
fn lattice_layers(run: &LatticeRun, seed: u64, scale: f64, replay: &mut Replay) -> Ledger {
    let mut ledger = Ledger::default();
    let by_mode = |mode: Mode| -> f64 {
        let ms: Vec<f64> = run
            .runs
            .iter()
            .filter(|r| r.mode == mode)
            .map(|r| r.ms)
            .collect();
        stats::median_of(&ms)
    };
    let dense = by_mode(Mode::Dense);
    ledger.insert("core.dense_cohort_ms_p50", dense);
    ledger.insert("core.sharded_cohort_ms_p50", by_mode(Mode::Sharded));
    ledger.insert("core.hybrid_cohort_ms_p50", by_mode(Mode::Hybrid));
    let count = serve::scaled(SERIAL_COHORTS, scale, 1, 2);
    let serial_ms: Vec<f64> = lattice::cohorts(count, lattice::SUBJECTS, seed)
        .iter()
        .map(|spec| {
            let began = Instant::now();
            let outcome = replay
                .spans
                .time(lattice::mode_span(Mode::Serial), spec.id, || {
                    lattice::classify(&replay.engine, spec, Mode::Serial)
                });
            std::hint::black_box(outcome);
            began.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let serial = stats::median_of(&serial_ms);
    ledger.insert("core.serial_cohort_ms_p50", serial);
    // Serial over dense at the host's thread count. With one core this
    // reads near (or below) 1 and says nothing about scaling.
    ledger.insert("core.par_speedup", serial / dense.max(1e-9));
    ledger
}

/// What the serial replays and probes of one traced run share.
struct Replay {
    engine: SharedEngine,
    spans: Spans,
    violations: Vec<String>,
}

/// What the live passes of one traced run add up to.
#[derive(Default)]
struct Account {
    attempted: u64,
    failed: u64,
    checked_cohorts: usize,
    phases: Vec<Json>,
    violations: Vec<String>,
}

/// One workload live with spans on at `scale`, and the layer numbers it
/// owns. Also returns the pass's spans and its throughput.
fn live_layers(
    workload: &str,
    seed: u64,
    scale: f64,
    frames: &FrameBytes,
    replay: &mut Replay,
    account: &mut Account,
) -> io::Result<(Ledger, Spans, f64)> {
    let pass = Pass {
        scale,
        paced: true,
        trace: true,
        setups: 1,
    };
    let (ledger, mut served) = if workload == "lattice-n20" {
        let run = lattice::run(seed, pass)?;
        (lattice_layers(&run, seed, scale, replay), vec![run.served])
    } else {
        let served = live_pass(workload, seed, pass)?;
        let ledger = match workload {
            "svc-n12" => svc_layers(&served[0])?,
            "fabric-n12" => {
                let ledger = fabric_layers(&served[0], frames)?;
                if ledger.get("net.relocated_cohorts")? < 1.0 {
                    account.violations.push(
                        "the drain relocated no cohort: the handoff went unexercised".to_string(),
                    );
                }
                ledger
            }
            "plan-w8" => plan_layers(&served[0], scale)?,
            "approx-n128" => approx_layers(&served, seed, scale, replay)?,
            other => return Err(io::Error::other(format!("unknown workload {other:?}"))),
        };
        (ledger, served)
    };
    let rate = throughput(&served)?.0;
    let mut spans = Spans::off();
    for run in &mut served {
        account
            .violations
            .extend(run.violations.iter().map(|v| format!("{workload}: {v}")));
        account.attempted += run.ledger.offered;
        // Shedding is what an open loop does under overload; it is
        // reported as a per-layer fraction, not as a failed operation.
        let paced_shed = run.phase("paced").map_or(0, |p| p.counts.shed);
        account.failed += failed_specimens(&run.ledger) - paced_shed;
        account
            .phases
            .extend(run.phases.iter().map(|p| phase_json(workload, p)));
        account.checked_cohorts += run.checked_cohorts;
        let taken = std::mem::replace(&mut run.spans, Spans::off());
        if spans.enabled() {
            spans.absorb(taken);
        } else {
            spans = taken;
        }
    }
    Ok((ledger, spans, rate))
}

// ---------------------------------------------------------- probe ledgers --

/// The probe ledgers kept by an earlier traced run with this seed and run
/// length, by workload; none when there is no such record.
fn kept_probes(path: &std::path::Path, args: &RunArgs) -> BTreeMap<String, Ledger> {
    let Some(doc) = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| json::parse(&text).ok())
    else {
        return BTreeMap::new();
    };
    let same_run = doc.get("seed").and_then(Json::as_num) == Some(args.seed as f64)
        && doc.get("seconds").and_then(Json::as_num) == Some(args.seconds);
    if !same_run {
        return BTreeMap::new();
    }
    doc.get("ledgers").map_or_else(BTreeMap::new, |ledgers| {
        json::entries(ledgers)
            .iter()
            .map(|(workload, ledger)| (workload.clone(), Ledger::from_json(ledger)))
            .collect()
    })
}

fn keep_probes(
    path: &std::path::Path,
    args: &RunArgs,
    ledgers: &BTreeMap<String, Ledger>,
) -> io::Result<()> {
    let doc = json::obj([
        ("seed", json::count(args.seed)),
        ("seconds", json::num(args.seconds)),
        (
            "ledgers",
            json::obj(ledgers.iter().map(|(w, l)| (w.as_str(), l.to_json()))),
        ),
    ]);
    std::fs::write(path, json::render(&doc))
}

// -------------------------------------------------------------------- run --

pub fn run(args: &RunArgs) -> io::Result<RunResult> {
    let seed = args.seed;
    let own = args.workload.as_str();
    let scale = args.scale();
    let out_dir = host::out_dir()?;
    let mut ledger = Ledger::default();
    let mut account = Account::default();

    // The invoked workload with spans off, then on, at the same size: the
    // difference is what tracing costs.
    let own_scale = scale
        * if own == "plan-w8" {
            PLAN_OWN_SHARE
        } else {
            OWN_SHARE
        };
    let untraced = live_pass(
        own,
        seed,
        Pass {
            scale: own_scale,
            paced: false,
            trace: false,
            setups: 1,
        },
    )?;
    let untraced_rate = throughput(&untraced)?.0;
    account
        .violations
        .extend(untraced.iter().flat_map(|r| r.violations.clone()));
    drop(untraced);

    // Probes that need no live pass: engine, queue, selection, codec, and
    // the lattice and bayes kernels.
    let mut replay = Replay {
        engine: engine_probe(&mut ledger),
        spans: Spans::on(),
        violations: Vec::new(),
    };
    wfq_probe(&mut ledger);
    select_probe(seed, &mut ledger);
    let frames = codec_probe(seed, &replay.engine, &mut ledger);
    for n in [12, 20] {
        kernel_probe(n, seed, &replay.engine, &mut ledger);
    }

    let (own_ledger, mut own_spans, traced_rate) =
        live_layers(own, seed, own_scale, &frames, &mut replay, &mut account)?;
    ledger.insert("trace.overhead_ratio", traced_rate / untraced_rate);
    ledger.insert("repo.rust_loc", host::rust_loc() as f64);

    // The other four workloads' numbers: kept by an earlier run of this
    // set, or probed now.
    let probe_path = out_dir.join(PROBE_FILE);
    let mut ledgers = kept_probes(&probe_path, args);
    for workload in &spec().workloads {
        if workload != own && !ledgers.contains_key(workload) {
            let (probed, _, _) = live_layers(
                workload,
                seed,
                scale * PROBE_SHARE,
                &frames,
                &mut replay,
                &mut account,
            )?;
            ledgers.insert(workload.clone(), probed);
        }
    }
    ledgers.insert(own.to_string(), own_ledger);
    keep_probes(&probe_path, args, &ledgers)?;
    for layers in ledgers.into_values() {
        ledger.absorb(layers);
    }

    // -- layer replay: service -------------------------------------------
    // The invoked workload's own cohorts where it has a dense N=12 service
    // under it, the `svc-n12` cohorts otherwise.
    let (service_plan, replay_cohorts, live_cpu) = if own == "plan-w8" {
        (
            serve::plan_w8(seed),
            PLAN_REPLAY_COHORTS,
            "aux.plan_sat_cpu_ms_per_specimen",
        )
    } else {
        (
            serve::svc_n12(seed),
            REPLAY_COHORTS,
            "aux.svc_sat_cpu_ms_per_specimen",
        )
    };
    let replay_cohorts = ((replay_cohorts as f64 * scale).round() as usize).max(16);
    let seeded_batches = batches(&service_plan, replay_cohorts, seed);
    let replayed = replay_service(
        &replay.engine,
        &service_plan.config,
        &seeded_batches,
        SERVICE,
        &mut replay.spans,
        &mut replay.violations,
    );
    {
        let spans = &replay.spans;
        ledger.insert(
            "service.batch_form_ns_per_specimen",
            spans.total_ns("service.batch_form") / replayed.specimens.max(1) as f64,
        );
        ledger.insert(
            "service.cohort_open_us_p50",
            stats::median(&spans.durations_ns("service.cohort_open")) / 1e3,
        );
        let rounds = spans.durations_ns("service.round");
        ledger.insert("service.round_us_p50", stats::median(&rounds) / 1e3);
        ledger.insert("service.round_us_p99", stats::tail(&rounds, 0.99).0 / 1e3);
        ledger.insert(
            "service.rounds_per_cohort",
            replayed.rounds as f64 / replayed.cohorts.max(1) as f64,
        );
        ledger.insert(
            "service.replay_specimens_per_s",
            replayed.specimens as f64 / replayed.wall_s,
        );
        let replay_cpu = spans.total_ns("service.cohort") / 1e6 / replayed.specimens.max(1) as f64;
        ledger.insert(
            "service.cpu_over_replay_ratio",
            ledger.get(live_cpu)? / replay_cpu,
        );
        ledger.insert(
            "service.checkpoint_encode_us_p50",
            stats::median(&spans.durations_ns("service.checkpoint_encode")) / 1e3,
        );
        ledger.insert(
            "service.checkpoint_decode_us_p50",
            stats::median(&spans.durations_ns("service.checkpoint_decode")) / 1e3,
        );
        ledger.insert(
            "service.checkpoint_bytes_p50",
            stats::median_of(&replayed.checkpoint_bytes),
        );
    }

    // -- layer replay: core ------------------------------------------------
    // `lattice-n20` replays its own N=20 cohorts, everything else the
    // service replay's.
    {
        let (specs, model, config, buckets): (Vec<CohortSpec>, _, _, _) = if own == "lattice-n20" {
            let count = serve::scaled(4, scale, 1, 2);
            (
                lattice::cohorts(count, lattice::SUBJECTS, seed),
                lattice::model(),
                Mode::Dense.session_config(),
                0,
            )
        } else {
            let config = &service_plan.config;
            let specs = seeded_batches
                .iter()
                .enumerate()
                .map(|(id, (tenant, batch))| {
                    CohortSpec::from_specimens(id as u64, config.base_seed, batch)
                        .with_tenant(*tenant)
                })
                .collect();
            (
                specs,
                config.model,
                config.session,
                config.plan_risk_buckets,
            )
        };
        let policy = sbgt_service::SessionPolicy {
            dense_threshold: specs[0].n_subjects() + 1,
            plan_risk_buckets: buckets,
            ..service_plan.config.policy()
        };
        let check_every = if own == "lattice-n20" {
            2
        } else {
            crate::load::SAMPLE_EVERY as usize
        };
        let mut snapshot_bytes = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            let outcome = replay_core_cohort(
                spec,
                model,
                config,
                buckets,
                (i % 8 == 0).then_some(&mut snapshot_bytes),
                &mut replay.spans,
                &mut replay.violations,
            );
            if i % check_every == 0 {
                let serial = run_cohort_serial(&replay.engine, spec, model, config, policy);
                if !same_bits(&outcome, &serial) {
                    replay.violations.push(format!(
                        "core replay of cohort {} differs from run_cohort_serial",
                        spec.id
                    ));
                }
            }
        }
        let spans = &replay.spans;
        let parts = [
            "core.session_new",
            "core.classify",
            "core.select",
            "core.observe",
        ];
        let totals: Vec<f64> = parts.iter().map(|p| spans.total_ns(p)).collect();
        let all: f64 = totals.iter().sum::<f64>().max(1.0);
        for ((part, total), (p50_name, share_name)) in parts.iter().zip(&totals).zip([
            ("core.session_new_us_p50", "core.new_share"),
            ("core.classify_us_p50", "core.classify_share"),
            ("core.select_us_p50", "core.select_share"),
            ("core.observe_us_p50", "core.observe_share"),
        ]) {
            ledger.insert(p50_name, stats::median(&spans.durations_ns(part)) / 1e3);
            ledger.insert(share_name, total / all);
        }
        let share_sum = totals.iter().sum::<f64>() / all;
        if (share_sum - 1.0).abs() > 0.01 {
            replay
                .violations
                .push(format!("core shares sum to {share_sum}, not 1"));
        }
        ledger.insert(
            "core.snapshot_encode_us_p50",
            stats::median(&spans.durations_ns("core.snapshot_encode")) / 1e3,
        );
        ledger.insert(
            "core.snapshot_decode_us_p50",
            stats::median(&spans.durations_ns("core.snapshot_decode")) / 1e3,
        );
        ledger.insert("core.snapshot_bytes_p50", stats::median_of(&snapshot_bytes));
    }

    // -- derived: the net layer as a ratio and a difference ----------------
    ledger.insert(
        "net.fabric_over_service_throughput",
        ledger.get("aux.fabric_sat_specimens_per_s")?
            / ledger.get("aux.svc_sat_specimens_per_s")?,
    );
    ledger.insert(
        "net.fabric_minus_service_latency_p50_us",
        (ledger.get("aux.fabric_solo_p50_ms")? - ledger.get("aux.svc_solo_p50_ms")?) * 1e3,
    );
    let mut codec_ns = 0.0;
    for name in [
        "net.place_encode_ns_p50",
        "net.place_decode_ns_p50",
        "net.reports_encode_ns_p50",
        "net.reports_decode_ns_p50",
    ] {
        codec_ns += ledger.get(name)?;
    }
    ledger.insert(
        "net.codec_share_of_rtt",
        codec_ns / ledger.get("aux.fabric_round_trip_ns")?.max(1.0),
    );

    // The span file of the invoked workload: its live pass, then the
    // replays and probes this run made.
    own_spans.absorb(replay.spans);
    own_spans.write_json(&out_dir.join(format!("trace-{own}.json")))?;

    let metrics = spec()
        .per_layer
        .iter()
        .map(|m| Ok((m.name.as_str(), ledger.get(&m.name)?)))
        .collect::<io::Result<Vec<_>>>()?;
    let mut violations = account.violations;
    violations.append(&mut replay.violations);
    Ok(RunResult {
        correct: violations.is_empty() && account.failed == 0,
        attempted: account.attempted,
        failed: account.failed,
        metrics,
        violations,
        phases: Json::Arr(account.phases),
        checked_cohorts: account.checked_cohorts,
        layers: layers_json(&own_spans),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::Tally;

    #[test]
    fn windows_read_the_two_ends_of_a_phase() {
        // 100 specimens: the first 40 in 1 s, then 10 per second.
        let mark = |at_s: f64, classified: u64| crate::load::Mark { at_s, classified };
        let mut progress = vec![mark(0.5, 20), mark(1.0, 40)];
        progress.extend((1..=6).map(|i| mark(1.0 + i as f64, 40 + 10 * i as u64)));
        let phase = Phase {
            counts: Tally {
                classified: 100,
                ..Tally::default()
            },
            wall_s: 7.0,
            progress,
            ..Phase::default()
        };
        let (first, last) = first_and_last_window(&phase, 20);
        assert!((first - 40.0).abs() < 1e-9);
        assert!((last - 10.0).abs() < 1e-9);
        // A window larger than half the phase shrinks to half.
        let (first, _) = first_and_last_window(&phase, 1000);
        assert!((first - 25.0).abs() < 1e-9, "{first}");
    }

    #[test]
    fn batches_follow_the_batcher_rule() {
        let plan = serve::svc_n12(3);
        let formed = batches(&plan, 20, 3);
        assert_eq!(formed.len(), 20);
        assert!(formed.iter().all(|(_, b)| b.len() == 12));
        assert!(formed.iter().any(|(t, _)| *t == 0) && formed.iter().any(|(t, _)| *t == 1));
        assert_eq!(formed, batches(&plan, 20, 3));
    }

    #[test]
    fn core_replay_equals_the_serial_reference() {
        let engine = quiet_engine(2);
        let mut spans = Spans::on();
        let mut violations = Vec::new();
        for (plan, buckets) in [(serve::svc_n12(5), 0), (serve::plan_w8(5), 16)] {
            let config = &plan.config;
            for (id, (tenant, batch)) in batches(&plan, 6, 5).iter().enumerate() {
                let spec = CohortSpec::from_specimens(id as u64, config.base_seed, batch)
                    .with_tenant(*tenant);
                let replayed = replay_core_cohort(
                    &spec,
                    config.model,
                    config.session,
                    buckets,
                    Some(&mut Vec::new()),
                    &mut spans,
                    &mut violations,
                );
                let serial = run_cohort_serial(
                    &engine,
                    &spec,
                    config.model,
                    config.session,
                    config.policy(),
                );
                assert!(
                    same_bits(&replayed, &serial),
                    "{} cohort {id}",
                    plan.workload
                );
            }
        }
        assert!(violations.is_empty(), "{violations:?}");
        // Selection, update and analysis time are all children of the
        // cohort span, so its self time is what the breakdown misses.
        let (_, cohorts, whole, own) = spans
            .summary()
            .into_iter()
            .find(|row| row.0 == "core.cohort")
            .expect("every replayed cohort has a span");
        assert_eq!(cohorts, 12);
        assert!(own < whole);
    }
}
