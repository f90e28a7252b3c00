//! Executor thread pool.
//!
//! A fixed-size pool of worker threads fed by a crossbeam MPMC channel.
//! Jobs are batches of independent tasks; [`ThreadPool::run_tasks`] submits a
//! batch and blocks until every task has completed (a stage barrier, in
//! Spark terms). Task panics are caught on the worker, reported back through
//! the result channel, and do **not** kill the worker thread, so a pool
//! survives failed jobs — mirroring executor fault containment.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Sender};

use crate::error::{panic_message, EngineError, Result};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Result of one task: its value plus the time the task body took on the
/// worker (excluding queueing delay).
pub struct TaskResult<T> {
    /// The task's return value.
    pub value: T,
    /// Wall-clock duration of the task body on its worker thread.
    pub duration: Duration,
}

/// A fixed-size executor pool.
pub struct ThreadPool {
    sender: Option<Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Spawn a pool with `threads` workers (at least 1). `name` prefixes the
    /// worker thread names (`{name}-{i}`), which makes profiler output and
    /// panic backtraces attributable.
    pub fn new(threads: usize, name: &str) -> Self {
        let threads = threads.max(1);
        let (sender, receiver) = unbounded::<Job>();
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let rx = receiver.clone();
            let handle = std::thread::Builder::new()
                .name(format!("{name}-{i}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .expect("failed to spawn executor thread");
            workers.push(handle);
        }
        ThreadPool {
            sender: Some(sender),
            workers,
            threads,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Submit a batch of independent tasks and block until all complete.
    ///
    /// Results are returned in submission order. If any task panics, the
    /// remaining results are still drained (so the pool is left clean) and
    /// the first panic, by task index, is returned as
    /// [`EngineError::TaskPanicked`].
    pub fn run_tasks<T, F>(&self, tasks: Vec<F>) -> Result<Vec<TaskResult<T>>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = tasks.len();
        if n == 0 {
            return Ok(Vec::with_capacity(0));
        }
        let sender = self.sender.as_ref().ok_or(EngineError::PoolShutDown)?;
        let (result_tx, result_rx) = unbounded::<(usize, std::thread::Result<TaskResult<T>>)>();

        for (idx, task) in tasks.into_iter().enumerate() {
            let tx = result_tx.clone();
            let job: Job = Box::new(move || {
                let started = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(task)).map(|value| TaskResult {
                    value,
                    duration: started.elapsed(),
                });
                // The receiver may have hung up if the caller bailed early;
                // dropping the result is the correct behaviour then.
                let _ = tx.send((idx, outcome));
            });
            sender.send(job).map_err(|_| EngineError::PoolShutDown)?;
        }
        drop(result_tx);

        let mut slots: Vec<Option<TaskResult<T>>> = (0..n).map(|_| None).collect();
        let mut first_panic: Option<(usize, String)> = None;
        for _ in 0..n {
            let (idx, outcome) = result_rx.recv().map_err(|_| EngineError::PoolShutDown)?;
            match outcome {
                Ok(res) => slots[idx] = Some(res),
                Err(payload) => {
                    let msg = panic_message(payload.as_ref());
                    match &first_panic {
                        Some((existing, _)) if *existing <= idx => {}
                        _ => first_panic = Some((idx, msg)),
                    }
                }
            }
        }
        if let Some((task, message)) = first_panic {
            return Err(EngineError::TaskPanicked {
                stage: String::new(),
                task,
                message,
            });
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("all tasks accounted for"))
            .collect())
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Close the injector so workers drain and exit, then join them.
        self.sender.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn runs_tasks_in_order() {
        let pool = ThreadPool::new(4, "t");
        let results = pool
            .run_tasks((0..100).map(|i| move || i * 3).collect::<Vec<_>>())
            .unwrap();
        let values: Vec<_> = results.into_iter().map(|r| r.value).collect();
        assert_eq!(values, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch_is_ok() {
        let pool = ThreadPool::new(2, "t");
        let results: Vec<TaskResult<i32>> = pool.run_tasks(Vec::<fn() -> i32>::new()).unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = ThreadPool::new(0, "t");
        assert_eq!(pool.threads(), 1);
        let r = pool.run_tasks(vec![|| 7]).unwrap();
        assert_eq!(r[0].value, 7);
    }

    #[test]
    fn panic_reports_first_task_index() {
        let pool = ThreadPool::new(2, "t");
        let tasks: Vec<Box<dyn FnOnce() -> i32 + Send>> = vec![
            Box::new(|| 0),
            Box::new(|| panic!("first")),
            Box::new(|| panic!("second")),
        ];
        match pool.run_tasks(tasks) {
            Err(EngineError::TaskPanicked { task, message, .. }) => {
                assert_eq!(task, 1);
                assert_eq!(message, "first");
            }
            Err(other) => panic!("unexpected error: {other:?}"),
            Ok(_) => panic!("expected panic error"),
        }
    }

    #[test]
    fn pool_survives_panics() {
        let pool = ThreadPool::new(2, "t");
        let bad: Vec<Box<dyn FnOnce() -> i32 + Send>> = (0..8)
            .map(|_| Box::new(|| -> i32 { panic!("x") }) as _)
            .collect();
        assert!(pool.run_tasks(bad).is_err());
        let good = pool.run_tasks(vec![|| 1, || 2]).unwrap();
        assert_eq!(good.len(), 2);
    }

    #[test]
    fn tasks_actually_run_concurrently_shared_state() {
        let pool = ThreadPool::new(4, "t");
        let counter = Arc::new(AtomicU64::new(0));
        let tasks: Vec<_> = (0..64)
            .map(|_| {
                let c = Arc::clone(&counter);
                move || {
                    c.fetch_add(1, Ordering::Relaxed);
                }
            })
            .collect();
        pool.run_tasks(tasks).unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn durations_are_recorded() {
        let pool = ThreadPool::new(1, "t");
        let r = pool
            .run_tasks(vec![|| {
                std::thread::sleep(Duration::from_millis(5));
            }])
            .unwrap();
        assert!(r[0].duration >= Duration::from_millis(4));
    }
}
