//! Stage scheduler — the fault-tolerant task execution loop.
//!
//! Every dataset stage lowers to [`Engine::run_stage`], which submits one
//! attempt per task to the executor pool and then supervises completions:
//!
//! * **Fault injection** — before each submission the engine's installed
//!   [`FaultPlan`] is consulted at `(stage, seq, task, attempt)`; a matching
//!   fault is woven into the attempt (sleep, synthetic panic, or poisoned
//!   result) and counted in the job's [`FaultStats`].
//! * **Retry** — a failed attempt (real panic, injected panic, poison) is
//!   re-submitted while the [`RetryPolicy`] budget allows; the job only
//!   fails once some task exhausts its attempts, and the resulting
//!   [`EngineError::TaskPanicked`] carries the stage name and attempt count.
//! * **Speculation** — with a [`SpeculationConfig`], once enough tasks have
//!   finished the scheduler duplicates any task still running well past the
//!   median completed duration (at most one duplicate per task); the first
//!   result wins and the loser is discarded.
//!
//! Task closures are `Fn` and must be idempotent: an attempt may run more
//! than once, and two attempts of one task may run concurrently under
//! speculation. Results are assembled in task-index order, so recovered
//! stages are bit-for-bit identical to fault-free ones as long as the
//! closures themselves are deterministic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, RecvTimeoutError, Sender};

use crate::chaos::{Fault, FaultPlan, SpeculationConfig};
use crate::error::{panic_message, EngineError, Result};
use crate::metrics::{FaultStats, JobMetrics, StageVariant};
use crate::obs::{SpanKind, SpanMeta, SpanRecorder, TraceLevel};
use crate::pool::ThreadPool;
use crate::retry::RetryPolicy;
use crate::Engine;

/// Telemetry context threaded from the driver into task attempts when
/// recording at [`TraceLevel::Full`]: every attempt records a
/// [`SpanKind::Task`] span on its executor thread's lane, linked back to
/// its stage span by the stage sequence number.
#[derive(Clone)]
struct ObsCtx {
    rec: Arc<SpanRecorder>,
    name: u32,
    seq: u64,
}

/// How often the supervision loop wakes to check for stragglers when
/// speculation is enabled (with speculation off it blocks indefinitely).
const SPECULATION_POLL: Duration = Duration::from_millis(1);

/// Outcome of one attempt, reported by the worker over the stage channel.
struct Completion<T> {
    task: usize,
    speculative: bool,
    outcome: std::result::Result<T, String>,
    duration: Duration,
}

/// Supervision state of one task.
struct TaskState {
    done: bool,
    /// Non-speculative submissions so far (bounded by the retry budget).
    regular_launches: usize,
    /// Speculative submissions so far (bounded to 1).
    speculative_launches: usize,
    /// Total submissions; doubles as the next attempt ordinal, so regular
    /// and speculative attempts of one task never share fault coordinates.
    attempts: usize,
    in_flight: usize,
    last_submit: Instant,
}

impl TaskState {
    fn new() -> Self {
        TaskState {
            done: false,
            regular_launches: 0,
            speculative_launches: 0,
            attempts: 0,
            in_flight: 0,
            last_submit: Instant::now(),
        }
    }
}

/// Submit one attempt of `task` to the pool, weaving in any fault the plan
/// schedules for its coordinates.
#[allow(clippy::too_many_arguments)]
fn submit_attempt<T, F>(
    pool: &ThreadPool,
    plan: Option<&Arc<FaultPlan>>,
    name: &str,
    seq: u64,
    task: usize,
    speculative: bool,
    st: &mut TaskState,
    body: &Arc<F>,
    tx: &Sender<Completion<T>>,
    stats: &mut FaultStats,
    obs: Option<&ObsCtx>,
) -> Result<()>
where
    T: Send + 'static,
    F: Fn() -> T + Send + Sync + 'static,
{
    let attempt = st.attempts;
    st.attempts += 1;
    st.in_flight += 1;
    st.last_submit = Instant::now();
    if speculative {
        st.speculative_launches += 1;
        stats.speculative_launched += 1;
    } else {
        st.regular_launches += 1;
    }

    // Faults are decided on the driver at submission time, so the injected
    // counters are exact even if the attempt loses a speculation race.
    let fault = plan.and_then(|p| p.fault_for(name, seq, task, attempt));
    let mut delay: Option<Duration> = None;
    let mut injected_panic: Option<String> = None;
    let mut poison_msg: Option<String> = None;
    match fault {
        Some(Fault::Delay(d)) => {
            stats.injected_delays += 1;
            delay = Some(d);
        }
        Some(Fault::Panic) => {
            stats.injected_panics += 1;
            injected_panic = Some(format!(
                "injected panic (stage '{name}', task {task}, attempt {attempt})"
            ));
        }
        Some(Fault::Poison) => {
            stats.injected_poisons += 1;
            poison_msg = Some(format!(
                "injected poisoned result (stage '{name}', task {task}, attempt {attempt})"
            ));
        }
        None => {}
    }

    // Injected faults show up as instant marks in the trace, at the
    // coordinates where they will fire.
    if let (Some(ctx), Some(f)) = (obs, fault) {
        let mark_name = match f {
            Fault::Panic => "fault:panic",
            Fault::Delay(_) => "fault:delay",
            Fault::Poison => "fault:poison",
        };
        let id = ctx.rec.intern(mark_name);
        let mut meta = SpanMeta::for_seq(ctx.seq);
        meta.task = task as u32;
        meta.attempt = attempt as u16;
        meta.speculative = speculative;
        ctx.rec.mark(id, meta);
    }

    let body = Arc::clone(body);
    let tx = tx.clone();
    let obs = obs.cloned();
    pool.spawn(move || {
        let obs_start = obs.as_ref().map(|ctx| ctx.rec.now_ns());
        let started = Instant::now();
        if let Some(d) = delay {
            std::thread::sleep(d);
        }
        let outcome = if let Some(msg) = injected_panic {
            Err(msg)
        } else {
            match catch_unwind(AssertUnwindSafe(|| body())) {
                // A poisoned attempt runs its body (side effects and all)
                // but its result is discarded as corrupt.
                Ok(value) => match poison_msg {
                    None => Ok(value),
                    Some(msg) => Err(msg),
                },
                Err(payload) => Err(panic_message(payload.as_ref())),
            }
        };
        if let (Some(ctx), Some(start_ns)) = (&obs, obs_start) {
            let meta = SpanMeta {
                task: task as u32,
                attempt: attempt as u16,
                speculative,
                failed: outcome.is_err(),
                cohort: crate::obs::NO_COHORT,
                seq: ctx.seq,
            };
            ctx.rec
                .record_span_ending_now(SpanKind::Task, ctx.name, start_ns, meta);
        }
        // The stage may have already failed and dropped the receiver.
        let _ = tx.send(Completion {
            task,
            speculative,
            outcome,
            duration: started.elapsed(),
        });
    })
}

/// The supervision loop. Returns per-task `(value, winning attempt
/// duration)` in task order. `stats` is filled in even on failure so the
/// caller can record what happened before the stage died.
#[allow(clippy::too_many_arguments)]
fn execute_stage<T, F>(
    engine: &Engine,
    name: &str,
    seq: u64,
    tasks: Vec<F>,
    policy: RetryPolicy,
    speculation: Option<SpeculationConfig>,
    stats: &mut FaultStats,
    obs: Option<&ObsCtx>,
) -> Result<Vec<(T, Duration)>>
where
    T: Send + 'static,
    F: Fn() -> T + Send + Sync + 'static,
{
    let n = tasks.len();
    if n == 0 {
        return Ok(Vec::with_capacity(0));
    }
    let plan = engine.fault_plan();
    let pool = engine.pool();
    let tasks: Vec<Arc<F>> = tasks.into_iter().map(Arc::new).collect();
    let (tx, rx) = unbounded::<Completion<T>>();

    let mut states: Vec<TaskState> = (0..n).map(|_| TaskState::new()).collect();
    let mut slots: Vec<Option<(T, Duration)>> = (0..n).map(|_| None).collect();
    let mut completed_durations: Vec<Duration> = Vec::with_capacity(n);
    let mut completed = 0usize;

    for task in 0..n {
        submit_attempt(
            pool,
            plan.as_ref(),
            name,
            seq,
            task,
            false,
            &mut states[task],
            &tasks[task],
            &tx,
            stats,
            obs,
        )?;
    }

    while completed < n {
        let completion = if speculation.is_some() {
            match rx.recv_timeout(SPECULATION_POLL) {
                Ok(c) => Some(c),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => return Err(EngineError::PoolShutDown),
            }
        } else {
            Some(rx.recv().map_err(|_| EngineError::PoolShutDown)?)
        };

        if let Some(c) = completion {
            let st = &mut states[c.task];
            st.in_flight -= 1;
            if !st.done {
                match c.outcome {
                    Ok(value) => {
                        st.done = true;
                        completed += 1;
                        completed_durations.push(c.duration);
                        slots[c.task] = Some((value, c.duration));
                        if c.speculative {
                            stats.speculative_wins += 1;
                        }
                    }
                    Err(message) => {
                        // If another attempt of this task is still in
                        // flight (a speculation race), it may yet win;
                        // only decide retry-vs-fail once nothing is.
                        if st.in_flight == 0 {
                            if st.regular_launches < policy.max_attempts() {
                                stats.retries += 1;
                                submit_attempt(
                                    pool,
                                    plan.as_ref(),
                                    name,
                                    seq,
                                    c.task,
                                    false,
                                    st,
                                    &tasks[c.task],
                                    &tx,
                                    stats,
                                    obs,
                                )?;
                            } else {
                                return Err(EngineError::TaskPanicked {
                                    stage: name.to_string(),
                                    task: c.task,
                                    attempts: st.attempts,
                                    message,
                                });
                            }
                        }
                    }
                }
            }
            // A completion for an already-done task is a speculation loser:
            // its result is discarded.
        }

        if let Some(spec) = speculation {
            if completed < n && !completed_durations.is_empty() {
                let arm_at = ((spec.quantile * n as f64).ceil() as usize).clamp(1, n);
                if completed >= arm_at {
                    let mut sorted = completed_durations.clone();
                    sorted.sort_unstable();
                    let median = sorted[sorted.len() / 2];
                    let threshold = spec
                        .min_straggler
                        .max(median.mul_f64(spec.multiplier.max(0.0)));
                    for task in 0..n {
                        let st = &mut states[task];
                        if !st.done
                            && st.in_flight > 0
                            && st.speculative_launches == 0
                            && st.last_submit.elapsed() >= threshold
                        {
                            submit_attempt(
                                pool,
                                plan.as_ref(),
                                name,
                                seq,
                                task,
                                true,
                                st,
                                &tasks[task],
                                &tx,
                                stats,
                                obs,
                            )?;
                        }
                    }
                }
            }
        }
    }

    Ok(slots
        .into_iter()
        .map(|s| s.expect("all tasks accounted for"))
        .collect())
}

impl Engine {
    /// Run a named stage under the engine's configured retry policy and
    /// speculation settings, with any installed [`FaultPlan`] applied.
    ///
    /// This is what every `Dataset` operation lowers to. Unlike
    /// [`Engine::run_job`] the task closures are `Fn` (re-invocable), which
    /// is what makes recovery possible at all.
    pub fn run_stage<T, F>(&self, name: &str, tasks: Vec<F>) -> Result<Vec<T>>
    where
        T: Send + 'static,
        F: Fn() -> T + Send + Sync + 'static,
    {
        let (results, _) =
            self.run_stage_with(name, tasks, self.config().retry, self.config().speculation)?;
        Ok(results)
    }

    /// [`Engine::run_stage`] with an explicit policy and speculation
    /// override, returning the job's [`FaultStats`] alongside the results.
    ///
    /// The job (succeeded or failed, with its fault counters) is recorded in
    /// the metrics registry either way.
    pub fn run_stage_with<T, F>(
        &self,
        name: &str,
        tasks: Vec<F>,
        policy: RetryPolicy,
        speculation: Option<SpeculationConfig>,
    ) -> Result<(Vec<T>, FaultStats)>
    where
        T: Send + 'static,
        F: Fn() -> T + Send + Sync + 'static,
    {
        // Defense in depth: constructors already enforce this, but a policy
        // built by deserialization or a same-crate literal must not be able
        // to turn "run this job" into an unwinding driver.
        if policy.max_attempts() == 0 {
            return Err(EngineError::InvalidArgument(
                "retry policy needs at least one attempt".to_string(),
            ));
        }
        let seq = self.next_stage_seq();
        let obs = self.obs();
        // Driver-side stage span at `Spans`; per-attempt task spans (and
        // fault marks) only at `Full`, since those record from executor
        // threads on the hot path.
        let stage_obs = obs
            .enabled_at(TraceLevel::Spans)
            .then(|| (obs.intern(name), obs.now_ns()));
        let task_obs = obs.enabled_at(TraceLevel::Full).then(|| ObsCtx {
            rec: Arc::clone(obs),
            name: stage_obs.expect("Full implies Spans").0,
            seq,
        });
        let start = Instant::now();
        let mut stats = FaultStats::default();
        let outcome = execute_stage(
            self,
            name,
            seq,
            tasks,
            policy,
            speculation,
            &mut stats,
            task_obs.as_ref(),
        );
        let wall = start.elapsed();
        if let Some((name_id, start_ns)) = stage_obs {
            let mut meta = SpanMeta::for_seq(seq);
            meta.failed = outcome.is_err();
            obs.record_span_ending_now(SpanKind::Stage, name_id, start_ns, meta);
        }
        match outcome {
            Ok(pairs) => {
                self.metrics().record_job(JobMetrics {
                    name: name.to_string(),
                    tasks: pairs.len(),
                    task_time: pairs.iter().map(|(_, d)| *d).sum(),
                    wall,
                    succeeded: true,
                    variant: StageVariant::Immutable,
                    faults: stats,
                });
                Ok((pairs.into_iter().map(|(v, _)| v).collect(), stats))
            }
            Err(e) => {
                self.metrics().record_job(JobMetrics {
                    name: name.to_string(),
                    tasks: 0,
                    task_time: Duration::ZERO,
                    wall,
                    succeeded: false,
                    variant: StageVariant::Immutable,
                    faults: stats,
                });
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosConfig;
    use crate::EngineConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn engine_with_retry(attempts: usize) -> Engine {
        Engine::new(
            EngineConfig::default()
                .with_threads(2)
                .with_retry(RetryPolicy::clamped(attempts)),
        )
    }

    #[test]
    fn injected_panic_is_retried_transparently() {
        let e = engine_with_retry(3);
        e.set_fault_plan(FaultPlan::new().panic_at("square", 1, 0));
        let tasks: Vec<_> = (0..4usize).map(|i| move || i * i).collect();
        let out = e.run_stage("square", tasks).unwrap();
        assert_eq!(out, vec![0, 1, 4, 9]);
        let job = e.metrics().jobs().pop().unwrap();
        assert!(job.succeeded);
        assert_eq!(job.faults.injected_panics, 1);
        assert_eq!(job.faults.retries, 1);
        assert_eq!(job.tasks, 4);
    }

    #[test]
    fn poisoned_result_runs_body_but_discards_value() {
        let e = engine_with_retry(2);
        e.set_fault_plan(FaultPlan::new().poison_at("work", 0, 0));
        let calls = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&calls);
        let out = e
            .run_stage(
                "work",
                vec![move || {
                    c.fetch_add(1, Ordering::SeqCst);
                    7u32
                }],
            )
            .unwrap();
        assert_eq!(out, vec![7]);
        // Attempt 0 ran and was poisoned; attempt 1 ran clean.
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        let job = e.metrics().jobs().pop().unwrap();
        assert_eq!(job.faults.injected_poisons, 1);
        assert_eq!(job.faults.retries, 1);
    }

    #[test]
    fn exhausted_retries_surface_stage_and_attempts() {
        let e = engine_with_retry(2);
        e.set_fault_plan(
            FaultPlan::new()
                .panic_at("doomed", 0, 0)
                .panic_at("doomed", 0, 1),
        );
        let err = e.run_stage("doomed", vec![|| 1u8]).unwrap_err();
        match err {
            EngineError::TaskPanicked {
                stage,
                task,
                attempts,
                message,
            } => {
                assert_eq!(stage, "doomed");
                assert_eq!(task, 0);
                assert_eq!(attempts, 2);
                assert!(message.contains("injected panic"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
        let job = e.metrics().jobs().pop().unwrap();
        assert!(!job.succeeded);
        assert_eq!(job.faults.injected_panics, 2);
        assert_eq!(job.faults.retries, 1);
    }

    #[test]
    fn straggler_is_speculated_and_duplicate_wins() {
        let e = Engine::new(
            EngineConfig::default()
                .with_threads(4)
                .with_retry(RetryPolicy::clamped(2))
                .with_speculation(SpeculationConfig {
                    quantile: 0.75,
                    multiplier: 1.5,
                    min_straggler: Duration::from_millis(5),
                }),
        );
        // Task 3's first attempt sleeps 300ms; its speculative duplicate
        // (attempt 1) is clean and finishes immediately.
        e.set_fault_plan(FaultPlan::new().delay_at("spec", 3, 0, Duration::from_millis(300)));
        let start = Instant::now();
        let tasks: Vec<_> = (0..4usize).map(|i| move || i + 10).collect();
        let (out, stats) = e
            .run_stage_with(
                "spec",
                tasks,
                RetryPolicy::clamped(2),
                e.config().speculation,
            )
            .unwrap();
        assert_eq!(out, vec![10, 11, 12, 13]);
        assert_eq!(stats.injected_delays, 1);
        assert_eq!(stats.speculative_launched, 1);
        assert_eq!(stats.speculative_wins, 1);
        // The duplicate rescued the stage from the 300ms injected sleep.
        assert!(
            start.elapsed() < Duration::from_millis(250),
            "speculation did not shortcut the straggler ({:?})",
            start.elapsed()
        );
    }

    #[test]
    fn seeded_campaign_survives_with_retry_budget() {
        let e = engine_with_retry(2);
        // 40% panic rate on first attempts only: every task survives because
        // max_faulted_attempts (1) < max_attempts (2).
        e.set_fault_plan(FaultPlan::seeded(ChaosConfig::new(9).with_panic_rate(0.4)));
        for round in 0..4 {
            let tasks: Vec<_> = (0..8usize).map(move |i| move || i * round).collect();
            let out = e.run_stage("campaign", tasks).unwrap();
            assert_eq!(out, (0..8).map(|i| i * round).collect::<Vec<_>>());
        }
        let totals = e.metrics().fault_totals();
        assert!(totals.injected_panics > 0, "campaign never fired");
        assert_eq!(totals.retries, totals.injected_panics);
        // Clearing the plan silences the campaign.
        e.clear_fault_plan();
        let before = e.metrics().fault_totals();
        e.run_stage("quiet", (0..8usize).map(|i| move || i).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(e.metrics().fault_totals(), before);
    }

    #[test]
    fn empty_stage_is_ok() {
        let e = engine_with_retry(1);
        let out: Vec<u8> = e.run_stage("empty", Vec::<fn() -> u8>::new()).unwrap();
        assert!(out.is_empty());
    }
}
