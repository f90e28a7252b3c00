//! The stage runner — the one way tasks reach the executor pool.
//!
//! Every stage lowers to [`Engine::run_stage`]: the dataset stages
//! (in-place and read-only aggregate) and the single-task stages the
//! sparse arm and the BP relaxation run. Per stage it:
//!
//! * takes the engine's next stage sequence number `seq`;
//! * consults the installed [`crate::FaultPlan`] at `(stage, seq, task)`
//!   and weaves a matching fault into the task (sleep, injected panic, or
//!   poisoned result), counting it in the job's [`FaultStats`];
//! * runs every task exactly once on [`crate::ThreadPool::run_tasks`]. A
//!   task is never re-run: the first failure by task index fails the stage
//!   with [`EngineError::TaskPanicked`] naming the stage and the task;
//! * records the driver-side `Stage` span at [`TraceLevel::Spans`], one
//!   `Task` span per task on its executor thread at [`TraceLevel::Full`],
//!   and the job's [`JobMetrics`] into its stage's aggregate — the one
//!   place a stage is recorded.
//!
//! Recovery is not the engine's business. A failed stage is reported; the
//! caller that owns the state (the service's round rollback) restores it
//! and replays.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::chaos::Fault;
use crate::error::{EngineError, Result};
use crate::metrics::{FaultStats, JobMetrics};
use crate::obs::{SpanKind, SpanMeta, SpanRecorder, TraceLevel};
use crate::Engine;

/// Telemetry context threaded from the driver into tasks when recording at
/// [`TraceLevel::Full`]: every task records a [`SpanKind::Task`] span on
/// its executor thread's lane, linked back to its stage span by the stage
/// sequence number.
#[derive(Clone)]
struct ObsCtx {
    rec: Arc<SpanRecorder>,
    name: u32,
    seq: u64,
}

/// One task with its scheduled fault woven in: a delay sleeps first, an
/// injected panic skips the body, a poisoned task runs the body and then
/// fails. Failures unwind with a `&str` payload, which the pool renders
/// into the stage error; `resume_unwind` skips the panic hook, so injected
/// faults print nothing.
fn run_task<T>(
    body: impl FnOnce() -> T,
    task: usize,
    fault: Option<Fault>,
    obs: Option<ObsCtx>,
) -> T {
    let start_ns = obs.as_ref().map(|ctx| ctx.rec.now_ns());
    if let Some(Fault::Delay(d)) = fault {
        std::thread::sleep(d);
    }
    let outcome = match fault {
        Some(Fault::Panic) => Err(Box::new("injected panic") as Box<_>),
        _ => catch_unwind(AssertUnwindSafe(body)),
    }
    .and_then(|value| match fault {
        Some(Fault::Poison) => Err(Box::new("injected poisoned result") as Box<_>),
        _ => Ok(value),
    });
    if let (Some(ctx), Some(start_ns)) = (&obs, start_ns) {
        let mut meta = SpanMeta::for_seq(ctx.seq);
        meta.task = task as u32;
        meta.failed = outcome.is_err();
        ctx.rec
            .record_span_ending_now(SpanKind::Task, ctx.name, start_ns, meta);
    }
    outcome.unwrap_or_else(|payload| resume_unwind(payload))
}

impl Engine {
    /// Run a named stage: one closure per task, results in task order.
    ///
    /// Each task runs once. Any installed fault plan is applied at
    /// `(name, seq, task)`; a panicking (or injected-panic, or poisoned)
    /// task fails the stage with [`EngineError::TaskPanicked`] carrying
    /// `name` and the lowest failed task index. The job — succeeded or
    /// failed, with its fault counters — is recorded in the metrics
    /// registry either way.
    pub fn run_stage<T, F>(&self, name: &str, tasks: Vec<F>) -> Result<Vec<T>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let seq = self.next_stage_seq();
        let plan = self.fault_plan();
        let obs = self.obs();
        // Driver-side stage span at `Spans`; task spans (and fault marks)
        // only at `Full`, since those record from executor threads on the
        // hot path.
        let stage_obs = obs
            .enabled_at(TraceLevel::Spans)
            .then(|| (obs.intern(name), obs.now_ns()));
        let task_obs = obs.enabled_at(TraceLevel::Full).then(|| ObsCtx {
            rec: Arc::clone(obs),
            name: stage_obs.expect("Full implies Spans").0,
            seq,
        });
        let mut faults = FaultStats::default();
        let tasks: Vec<_> = tasks
            .into_iter()
            .enumerate()
            .map(|(task, body)| {
                let fault = plan.as_ref().and_then(|p| p.fault_for(name, seq, task));
                if let Some(f) = fault {
                    let mark = match f {
                        Fault::Panic => {
                            faults.injected_panics += 1;
                            "fault:panic"
                        }
                        Fault::Delay(_) => {
                            faults.injected_delays += 1;
                            "fault:delay"
                        }
                        Fault::Poison => {
                            faults.injected_poisons += 1;
                            "fault:poison"
                        }
                    };
                    // Injected faults show up as instant marks in the trace,
                    // at the coordinates where they fire.
                    if let Some(ctx) = &task_obs {
                        let mut meta = SpanMeta::for_seq(seq);
                        meta.task = task as u32;
                        ctx.rec.mark(ctx.rec.intern(mark), meta);
                    }
                }
                let obs = task_obs.clone();
                move || run_task(body, task, fault, obs)
            })
            .collect();

        let start = Instant::now();
        let outcome = self.pool().run_tasks(tasks);
        let wall = start.elapsed();
        if let Some((name_id, start_ns)) = stage_obs {
            let mut meta = SpanMeta::for_seq(seq);
            meta.failed = outcome.is_err();
            obs.record_span_ending_now(SpanKind::Stage, name_id, start_ns, meta);
        }
        let (done, task_time) = match &outcome {
            Ok(results) => (results.len(), results.iter().map(|r| r.duration).sum()),
            Err(_) => (0, Duration::ZERO),
        };
        self.metrics().record_job(JobMetrics {
            name: name.to_string(),
            tasks: done,
            task_time,
            wall,
            succeeded: outcome.is_ok(),
            faults,
        });
        match outcome {
            Ok(results) => Ok(results.into_iter().map(|r| r.value).collect()),
            Err(EngineError::TaskPanicked { task, message, .. }) => {
                Err(EngineError::TaskPanicked {
                    stage: name.to_string(),
                    task,
                    message,
                })
            }
            Err(other) => Err(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosConfig, FaultPlan};
    use crate::metrics::tests::only_stage;
    use crate::EngineConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn engine() -> Engine {
        Engine::new(EngineConfig::default().with_threads(2))
    }

    fn squares() -> Vec<impl FnOnce() -> usize + Send + 'static> {
        (0..4usize).map(|i| move || i * i).collect()
    }

    #[test]
    fn injected_panic_fails_the_stage_with_its_name_and_task() {
        let e = engine();
        e.set_fault_plan(FaultPlan::new().panic_at("square", 1));
        match e.run_stage("square", squares()).unwrap_err() {
            EngineError::TaskPanicked {
                stage,
                task,
                message,
            } => {
                assert_eq!(stage, "square");
                assert_eq!(task, 1);
                assert_eq!(message, "injected panic");
            }
            other => panic!("unexpected {other:?}"),
        }
        let agg = only_stage(e.metrics());
        assert_eq!((agg.jobs, agg.failed_jobs), (1, 1));
        assert_eq!(agg.tasks, 0);
        assert_eq!(e.metrics().fault_totals().injected_panics, 1);
    }

    #[test]
    fn poisoned_result_runs_the_body_once_then_fails() {
        let e = engine();
        e.set_fault_plan(FaultPlan::new().poison_at("work", 0));
        let calls = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&calls);
        let err = e
            .run_stage(
                "work",
                vec![move || {
                    c.fetch_add(1, Ordering::SeqCst);
                    7u32
                }],
            )
            .unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        assert_eq!(calls.load(Ordering::SeqCst), 1, "a task is never re-run");
        assert_eq!(only_stage(e.metrics()).failed_jobs, 1);
        assert_eq!(e.metrics().fault_totals().injected_poisons, 1);
    }

    #[test]
    fn straggler_changes_no_value() {
        let e = engine();
        e.set_fault_plan(FaultPlan::new().delay_at("slow", 2, Duration::from_millis(20)));
        assert_eq!(e.run_stage("slow", squares()).unwrap(), vec![0, 1, 4, 9]);
        let agg = only_stage(e.metrics());
        assert_eq!((agg.jobs, agg.failed_jobs), (1, 0));
        assert_eq!(e.metrics().fault_totals().injected_delays, 1);
    }

    /// The stage-level contract under a seeded campaign: every stage
    /// returns the clean bits or fails naming itself, the same stages fail
    /// on a rerun, and clearing the plan silences the campaign.
    #[test]
    fn seeded_campaign_returns_clean_values_or_fails() {
        let campaign = || FaultPlan::seeded(ChaosConfig::new(9).with_panic_rate(0.2));
        let run = |e: &Engine| -> Vec<Option<Vec<usize>>> {
            (0..16usize)
                .map(|round| {
                    let tasks: Vec<_> = (0..4usize).map(move |i| move || i * round).collect();
                    match e.run_stage("campaign", tasks) {
                        Ok(out) => {
                            assert_eq!(out, (0..4).map(|i| i * round).collect::<Vec<_>>());
                            Some(out)
                        }
                        Err(EngineError::TaskPanicked { stage, .. }) => {
                            assert_eq!(stage, "campaign");
                            None
                        }
                        Err(other) => panic!("unexpected {other:?}"),
                    }
                })
                .collect()
        };
        let e = engine();
        e.set_fault_plan(campaign());
        let first = run(&e);
        assert!(first.iter().any(Option::is_none), "campaign killed nothing");
        assert!(
            first.iter().any(Option::is_some),
            "campaign killed everything"
        );
        let again = engine();
        again.set_fault_plan(campaign());
        assert_eq!(run(&again), first, "the schedule is a function of the plan");

        e.clear_fault_plan();
        let before = e.metrics().fault_totals();
        assert!(run(&e).iter().all(Option::is_some));
        assert_eq!(e.metrics().fault_totals(), before);
    }

    #[test]
    fn empty_stage_is_ok() {
        let e = engine();
        let out: Vec<u8> = e.run_stage("empty", Vec::<fn() -> u8>::new()).unwrap();
        assert!(out.is_empty());
        let agg = only_stage(e.metrics());
        assert_eq!(
            (agg.name.as_str(), agg.jobs, agg.failed_jobs),
            ("empty", 1, 0)
        );
    }
}
