//! Task retry — the engine's fault-containment layer.
//!
//! Spark re-executes failed tasks up to `spark.task.maxFailures` before
//! failing the job; long surveillance runs rely on that to survive flaky
//! executors. The in-process analogue retries a panicking task closure a
//! bounded number of times. Retryable tasks are `Fn` (re-invocable) rather
//! than the one-shot `FnOnce` of [`crate::ThreadPool::run_tasks`]; task
//! closures must therefore be idempotent, exactly like Spark tasks.
//!
//! The retry loop lives in the stage scheduler,
//! [`crate::Engine::run_stage_with`], which takes the policy explicitly and
//! also handles fault injection and speculative straggler re-execution.

use serde::{Deserialize, Serialize};

use crate::error::{EngineError, Result};

/// Policy for retrying failed tasks.
///
/// The attempt budget is guaranteed `>= 1` by construction: use
/// [`RetryPolicy::new`] (validated), [`RetryPolicy::clamped`], or
/// [`RetryPolicy::none`]. A zero-attempt policy cannot exist, so jobs can
/// never fail by mis-configuration instead of by task fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum attempts per task (invariant: `>= 1`; 1 means no retry).
    max_attempts: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // Spark's default is 4 attempts.
        RetryPolicy { max_attempts: 4 }
    }
}

impl RetryPolicy {
    /// A validated policy. `max_attempts == 0` is rejected with
    /// [`EngineError::InvalidArgument`] instead of blowing up later inside
    /// a job (the pre-PR-2 behaviour was an `assert!` panic on the driver).
    pub fn new(max_attempts: usize) -> Result<Self> {
        if max_attempts == 0 {
            return Err(EngineError::InvalidArgument(
                "retry policy needs at least one attempt".to_string(),
            ));
        }
        Ok(RetryPolicy { max_attempts })
    }

    /// Infallible constructor: clamps zero to one attempt.
    pub fn clamped(max_attempts: usize) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
        }
    }

    /// Single attempt, no retry — the default of [`crate::EngineConfig`].
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1 }
    }

    /// Maximum attempts per task (always `>= 1`).
    pub fn max_attempts(&self) -> usize {
        self.max_attempts
    }

    /// Whether failed tasks get re-executed at all.
    pub fn retries_enabled(&self) -> bool {
        self.max_attempts > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn engine() -> Engine {
        Engine::new(EngineConfig::default().with_threads(2))
    }

    #[test]
    fn no_failures_no_retries() {
        let e = engine();
        let tasks: Vec<_> = (0..6).map(|i| move || i * 2).collect();
        let (out, stats) = e
            .run_stage_with("clean", tasks, RetryPolicy::default(), None)
            .unwrap();
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10]);
        assert_eq!(stats.retries, 0);
    }

    #[test]
    fn flaky_task_succeeds_on_retry() {
        let e = engine();
        let attempts = Arc::new(AtomicUsize::new(0));
        let a = Arc::clone(&attempts);
        // Fails twice, then succeeds.
        let flaky = move || {
            let n = a.fetch_add(1, Ordering::SeqCst);
            if n < 2 {
                panic!("transient failure {n}");
            }
            99
        };
        let (out, stats) = e
            .run_stage_with("flaky", vec![flaky], RetryPolicy::new(4).unwrap(), None)
            .unwrap();
        assert_eq!(out, vec![99]);
        assert_eq!(stats.retries, 2);
        assert_eq!(attempts.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn permanent_failure_exhausts_attempts() {
        let e = engine();
        let calls = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&calls);
        let doomed = move || -> i32 {
            c.fetch_add(1, Ordering::SeqCst);
            panic!("permanent");
        };
        let err = e
            .run_stage_with("doomed", vec![doomed], RetryPolicy::new(3).unwrap(), None)
            .unwrap_err();
        match err {
            EngineError::TaskPanicked {
                stage,
                task: 0,
                attempts,
                message,
            } => {
                assert_eq!(stage, "doomed");
                assert_eq!(attempts, 3);
                assert_eq!(message, "permanent");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        // The failed job is recorded as such, with its retries counted.
        let jobs = e.metrics().jobs();
        let last = jobs.last().unwrap();
        assert!(!last.succeeded);
        assert_eq!(last.faults.retries, 2);
    }

    #[test]
    fn only_failed_tasks_are_retried() {
        let e = engine();
        let good_calls = Arc::new(AtomicUsize::new(0));
        let flaky_calls = Arc::new(AtomicUsize::new(0));
        let g = Arc::clone(&good_calls);
        let f = Arc::clone(&flaky_calls);
        let tasks: Vec<Box<dyn Fn() -> u32 + Send + Sync>> = vec![
            Box::new(move || {
                g.fetch_add(1, Ordering::SeqCst);
                1
            }),
            Box::new(move || {
                if f.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("once");
                }
                2
            }),
        ];
        let (out, stats) = e
            .run_stage_with("partial", tasks, RetryPolicy::default(), None)
            .unwrap();
        assert_eq!(out, vec![1, 2]);
        assert_eq!(stats.retries, 1);
        assert_eq!(good_calls.load(Ordering::SeqCst), 1, "good task ran once");
        assert_eq!(flaky_calls.load(Ordering::SeqCst), 2);
    }

    /// Regression: a zero-attempt config used to `assert!`-panic on the
    /// driver inside a retried job; it is now rejected at policy
    /// construction with a typed error, and an invalid policy smuggled in
    /// anyway (same-crate struct literal) surfaces `EngineError` too.
    #[test]
    fn zero_attempts_rejected_without_panicking() {
        match RetryPolicy::new(0) {
            Err(EngineError::InvalidArgument(msg)) => {
                assert!(msg.contains("at least one attempt"), "{msg}");
            }
            other => panic!("expected InvalidArgument, got {other:?}"),
        }
        assert_eq!(RetryPolicy::clamped(0).max_attempts(), 1);
        assert_eq!(RetryPolicy::none().max_attempts(), 1);
        assert!(!RetryPolicy::none().retries_enabled());
        assert!(RetryPolicy::default().retries_enabled());

        // Defense in depth: the scheduler validates rather than asserting.
        let e = engine();
        let invalid = RetryPolicy { max_attempts: 0 };
        match e.run_stage_with("bad", vec![|| 1], invalid, None) {
            Err(EngineError::InvalidArgument(_)) => {}
            other => panic!("expected InvalidArgument, got {other:?}"),
        }
    }
}
