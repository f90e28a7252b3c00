//! Partitioned datasets — the RDD analogue.
//!
//! A [`Dataset<T>`] is a collection split into partitions, each held
//! behind an [`Arc`] so tasks can reference partition data without copying
//! it. A stage submits one task per partition to the engine's executor
//! pool: `map_partitions` produces a new dataset, `map_partitions_in_place`
//! mutates this one and returns one scalar per partition,
//! `aggregate_partitions` only reads; `collect` gathers to the driver.
//!
//! Unlike Spark, execution is eager: each stage is one job. SBGT's dataflow
//! is a short pipeline of wide barriers over the lattice shards, so lazy
//! DAG fusion would buy nothing here — the Spark semantics it needs
//! (partition-parallelism, broadcast, barriers) are preserved.
//!
//! # Panics
//!
//! If a user closure panics inside a task, the convenience methods on
//! `Dataset` propagate the panic on the driver thread (like Spark rethrowing
//! an executor exception). Use the `try_*` variants to receive an
//! [`EngineError`] instead.

use std::sync::Arc;

use crate::error::Result;
use crate::partitioner::partition_ranges;
use crate::Engine;

/// An immutable, partitioned, in-memory collection.
pub struct Dataset<T> {
    partitions: Vec<Arc<Vec<T>>>,
}

impl<T> Clone for Dataset<T> {
    fn clone(&self) -> Self {
        Dataset {
            partitions: self.partitions.clone(),
        }
    }
}

impl<T> Dataset<T> {
    /// Build a dataset from existing partition vectors.
    pub fn from_partitions(parts: Vec<Vec<T>>) -> Self {
        Dataset {
            partitions: parts.into_iter().map(Arc::new).collect(),
        }
    }

    /// Split `data` into `parts` balanced contiguous partitions.
    pub fn from_vec(mut data: Vec<T>, parts: usize) -> Self {
        let ranges = partition_ranges(data.len(), parts);
        // Split from the back so each split_off is O(moved elements).
        let mut partitions: Vec<Vec<T>> = Vec::with_capacity(ranges.len());
        for range in ranges.iter().rev() {
            partitions.push(data.split_off(range.start));
        }
        partitions.reverse();
        Dataset {
            partitions: partitions.into_iter().map(Arc::new).collect(),
        }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Total number of records.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(|p| p.len()).sum()
    }

    /// Whether the dataset holds no records.
    pub fn is_empty(&self) -> bool {
        self.partitions.iter().all(|p| p.is_empty())
    }

    /// Borrow one partition.
    pub fn partition(&self, i: usize) -> &[T] {
        &self.partitions[i]
    }

    /// Shared handles to all partitions.
    pub fn partition_handles(&self) -> &[Arc<Vec<T>>] {
        &self.partitions
    }

    /// Consume the dataset, yielding its partition handles. Handles that are
    /// uniquely owned can then be moved out with [`Arc::try_unwrap`] —
    /// the zero-copy way to take a stage's output to the driver.
    pub fn into_partitions(self) -> Vec<Arc<Vec<T>>> {
        self.partitions
    }

    /// Iterate over records in partition order (driver-side, sequential).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.partitions.iter().flat_map(|p| p.iter())
    }
}

impl<T: Send + Sync + 'static> Dataset<T> {
    /// Per-partition transformation (fallible). `f` receives the partition
    /// index and a borrowed slice of its records.
    pub fn try_map_partitions<U, F>(&self, engine: &Engine, name: &str, f: F) -> Result<Dataset<U>>
    where
        U: Send + Sync + 'static,
        F: Fn(usize, &[T]) -> Vec<U> + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let tasks: Vec<_> = self
            .partitions
            .iter()
            .enumerate()
            .map(|(idx, part)| {
                let part = Arc::clone(part);
                let f = Arc::clone(&f);
                move || f(idx, &part)
            })
            .collect();
        let parts = engine.run_stage(name, tasks)?;
        Ok(Dataset::from_partitions(parts))
    }

    /// Per-partition transformation (panics on task failure).
    pub fn map_partitions<U, F>(&self, engine: &Engine, f: F) -> Dataset<U>
    where
        U: Send + Sync + 'static,
        F: Fn(usize, &[T]) -> Vec<U> + Send + Sync + 'static,
    {
        unwrap_job(self.try_map_partitions(engine, "map_partitions", f))
    }

    /// In-place per-partition stage: each task receives `&mut [T]` for its
    /// partition and returns one scalar to the driver; **no output dataset
    /// is materialized**. This is the zero-copy primitive for iterated
    /// numeric passes (posterior updates) where the immutable path's
    /// per-stage output allocation dominates.
    ///
    /// # Uniqueness and copy-on-write
    ///
    /// A partition is mutated in place only when its `Arc` handle is
    /// uniquely owned by this dataset (checked per task with
    /// [`Arc::try_unwrap`]). If the handle is shared — a live clone of the
    /// dataset, a held [`Self::partition_handles`] handle — the task clones
    /// the partition and mutates the copy, so other owners never observe
    /// the mutation. Either way `self` ends up owning the updated
    /// partitions. The unique/COW split is recorded on the job's metrics as
    /// [`crate::StageVariant::InPlace`].
    ///
    /// # Fault tolerance
    ///
    /// When [`Engine::fault_tolerance_active`] (retries, speculation, or an
    /// installed fault plan), the zero-copy path is unsound for recovery:
    /// a retried attempt must re-run against **pristine** input, but an
    /// in-place attempt may have half-mutated its partition before dying.
    /// The stage therefore switches to a retry-safe variant: the dataset
    /// keeps its partition handles on the driver and every attempt mutates
    /// a private copy (recorded as all-COW on the job's metrics). First
    /// attempts pay one copy per partition — exactly what COW would have
    /// cost — and retried or speculative attempts are automatically
    /// idempotent and race-free.
    ///
    /// # Errors
    ///
    /// With fault tolerance off, a task failure loses the consumed
    /// partitions with the failed job: the dataset is left **empty** (zero
    /// partitions). Callers that need the pre-stage data after a failure
    /// must clone first. With fault tolerance on, a failed stage leaves the
    /// dataset **unchanged** (pristine pre-stage partitions; no partial
    /// results are leaked).
    pub fn try_map_partitions_in_place<R, F>(
        &mut self,
        engine: &Engine,
        name: &str,
        f: F,
    ) -> Result<Vec<R>>
    where
        T: Clone,
        R: Send + 'static,
        F: Fn(usize, &mut [T]) -> R + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        if engine.fault_tolerance_active() {
            return self.map_in_place_retry_safe(engine, name, f);
        }
        let handles = std::mem::take(&mut self.partitions);
        let tasks: Vec<_> = handles
            .into_iter()
            .enumerate()
            .map(|(idx, handle)| {
                let f = Arc::clone(&f);
                move || {
                    let (mut values, unique) = match Arc::try_unwrap(handle) {
                        Ok(values) => (values, true),
                        // Shared handle: copy-on-write so other owners keep
                        // the pre-stage values.
                        Err(shared) => ((*shared).clone(), false),
                    };
                    let result = f(idx, &mut values);
                    (Arc::new(values), result, unique)
                }
            })
            .collect();
        let outputs = engine.run_job(name, tasks)?;
        let mut results = Vec::with_capacity(outputs.len());
        let (mut unique, mut cow) = (0, 0);
        self.partitions = outputs
            .into_iter()
            .map(|(handle, result, was_unique)| {
                if was_unique {
                    unique += 1;
                } else {
                    cow += 1;
                }
                results.push(result);
                handle
            })
            .collect();
        engine
            .metrics()
            .annotate_last_job(crate::StageVariant::InPlace { unique, cow });
        Ok(results)
    }

    /// Retry-safe in-place stage: the driver keeps the pristine handles and
    /// each attempt mutates a private copy, so attempts are idempotent
    /// (retries) and never race each other (speculation). On failure the
    /// dataset is left exactly as it was.
    fn map_in_place_retry_safe<R, F>(
        &mut self,
        engine: &Engine,
        name: &str,
        f: Arc<F>,
    ) -> Result<Vec<R>>
    where
        T: Clone,
        R: Send + 'static,
        F: Fn(usize, &mut [T]) -> R + Send + Sync + 'static,
    {
        let tasks: Vec<_> = self
            .partitions
            .iter()
            .enumerate()
            .map(|(idx, handle)| {
                let handle = Arc::clone(handle);
                let f = Arc::clone(&f);
                move || {
                    // Copy from the pristine handle on *every* attempt; the
                    // driver's copy is never mutated, so a re-run after a
                    // half-complete panic still sees unmutated input.
                    let mut values = (*handle).clone();
                    let result = f(idx, &mut values);
                    (Arc::new(values), result)
                }
            })
            .collect();
        // On failure `self.partitions` has not been touched: pristine.
        let outputs = engine.run_stage(name, tasks)?;
        let cow = outputs.len();
        let mut results = Vec::with_capacity(cow);
        self.partitions = outputs
            .into_iter()
            .map(|(handle, result)| {
                results.push(result);
                handle
            })
            .collect();
        engine
            .metrics()
            .annotate_last_job(crate::StageVariant::InPlace { unique: 0, cow });
        Ok(results)
    }

    /// In-place per-partition stage (panics on task failure); see
    /// [`Self::try_map_partitions_in_place`].
    pub fn map_partitions_in_place<R, F>(&mut self, engine: &Engine, f: F) -> Vec<R>
    where
        T: Clone,
        R: Send + 'static,
        F: Fn(usize, &mut [T]) -> R + Send + Sync + 'static,
    {
        unwrap_job(self.try_map_partitions_in_place(engine, "map_partitions_in_place", f))
    }

    /// Read-only per-partition stage returning one value per partition to
    /// the driver, without materializing an output dataset (Spark's
    /// `runJob`). The lighter sibling of
    /// [`Self::try_map_partitions_in_place`] for aggregations whose
    /// per-partition result is small (sums, histograms, local argmaxes).
    pub fn try_aggregate_partitions<R, F>(
        &self,
        engine: &Engine,
        name: &str,
        f: F,
    ) -> Result<Vec<R>>
    where
        R: Send + 'static,
        F: Fn(usize, &[T]) -> R + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let tasks: Vec<_> = self
            .partitions
            .iter()
            .enumerate()
            .map(|(idx, part)| {
                let part = Arc::clone(part);
                let f = Arc::clone(&f);
                move || f(idx, &part)
            })
            .collect();
        engine.run_stage(name, tasks)
    }

    /// Read-only per-partition stage (panics on task failure); see
    /// [`Self::try_aggregate_partitions`].
    pub fn aggregate_partitions<R, F>(&self, engine: &Engine, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(usize, &[T]) -> R + Send + Sync + 'static,
    {
        unwrap_job(self.try_aggregate_partitions(engine, "aggregate_partitions", f))
    }

    /// Gather all records to the driver in partition order.
    pub fn collect(&self) -> Vec<T>
    where
        T: Clone,
    {
        let mut out = Vec::with_capacity(self.len());
        for part in &self.partitions {
            out.extend(part.iter().cloned());
        }
        out
    }
}

fn unwrap_job<T>(result: Result<T>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => panic!("dataset job failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, EngineError};

    fn engine() -> Engine {
        Engine::new(EngineConfig::default().with_threads(2))
    }

    #[test]
    fn from_vec_balances() {
        let ds = Dataset::from_vec((0..10).collect::<Vec<_>>(), 3);
        assert_eq!(ds.num_partitions(), 3);
        assert_eq!(ds.partition(0), &[0, 1, 2, 3]);
        assert_eq!(ds.partition(1), &[4, 5, 6]);
        assert_eq!(ds.partition(2), &[7, 8, 9]);
        assert_eq!(ds.len(), 10);
        assert!(!ds.is_empty());
    }

    #[test]
    fn from_vec_more_parts_than_items() {
        let ds = Dataset::from_vec(vec![1, 2], 5);
        assert_eq!(ds.num_partitions(), 5);
        assert_eq!(ds.collect(), vec![1, 2]);
        assert_eq!(ds.iter().count(), 2);
    }

    #[test]
    #[should_panic(expected = "dataset job failed")]
    fn map_partitions_propagates_user_panic() {
        let e = engine();
        let ds = Dataset::from_vec(vec![1, 2, 3], 2);
        let _ = ds.map_partitions(&e, |idx, part| {
            if idx == 1 {
                panic!("bad partition");
            }
            part.to_vec()
        });
    }

    #[test]
    fn in_place_mutates_without_copy_when_unique() {
        let e = engine();
        let mut ds = Dataset::from_vec((0..100i64).collect::<Vec<_>>(), 4);
        let before: Vec<*const i64> = ds.partition_handles().iter().map(|h| h.as_ptr()).collect();
        let sums = ds.map_partitions_in_place(&e, |_, part| {
            let mut sum = 0i64;
            for x in part.iter_mut() {
                *x *= 2;
                sum += *x;
            }
            sum
        });
        assert_eq!(sums.iter().sum::<i64>(), 99 * 100);
        assert_eq!(ds.collect(), (0..100).map(|x| x * 2).collect::<Vec<_>>());
        // Unique handles: the very same buffers were mutated, no copies.
        let after: Vec<*const i64> = ds.partition_handles().iter().map(|h| h.as_ptr()).collect();
        assert_eq!(before, after);
        let jobs = e.metrics().jobs();
        assert_eq!(
            jobs.last().unwrap().variant,
            crate::StageVariant::InPlace { unique: 4, cow: 0 }
        );
    }

    #[test]
    fn in_place_copies_on_write_when_shared() {
        let e = engine();
        let mut ds = Dataset::from_vec((0..40i64).collect::<Vec<_>>(), 4);
        let snapshot = ds.clone(); // shares every handle
        let results = ds.map_partitions_in_place(&e, |idx, part| {
            for x in part.iter_mut() {
                *x += 1;
            }
            idx
        });
        assert_eq!(results, vec![0, 1, 2, 3]);
        // The mutation landed in `ds`...
        assert_eq!(ds.collect(), (1..41).collect::<Vec<_>>());
        // ...while the shared snapshot is untouched (COW).
        assert_eq!(snapshot.collect(), (0..40).collect::<Vec<_>>());
        let jobs = e.metrics().jobs();
        assert_eq!(
            jobs.last().unwrap().variant,
            crate::StageVariant::InPlace { unique: 0, cow: 4 }
        );
    }

    #[test]
    fn in_place_mixed_uniqueness_is_per_partition() {
        let e = engine();
        let mut ds = Dataset::from_vec((0..40i64).collect::<Vec<_>>(), 4);
        // Share only one partition's handle.
        let held = Arc::clone(&ds.partition_handles()[2]);
        ds.map_partitions_in_place(&e, |_, part| {
            for x in part.iter_mut() {
                *x = -*x;
            }
        });
        assert_eq!(ds.collect(), (0..40).map(|x| -x).collect::<Vec<_>>());
        assert_eq!(*held, (20..30).collect::<Vec<_>>());
        let jobs = e.metrics().jobs();
        assert_eq!(
            jobs.last().unwrap().variant,
            crate::StageVariant::InPlace { unique: 3, cow: 1 }
        );
    }

    #[test]
    fn in_place_failure_empties_dataset() {
        let e = engine();
        let mut ds = Dataset::from_vec((0..10i64).collect::<Vec<_>>(), 2);
        let err = ds.try_map_partitions_in_place(&e, "boom", |idx, _part| {
            if idx == 1 {
                panic!("bad partition");
            }
        });
        assert!(err.is_err());
        assert_eq!(ds.num_partitions(), 0);
        assert!(ds.is_empty());
    }

    #[test]
    fn in_place_failure_restores_pristine_under_fault_tolerance() {
        let e = Engine::new(
            EngineConfig::default()
                .with_threads(2)
                .with_retry(crate::RetryPolicy::clamped(2)),
        );
        let mut ds = Dataset::from_vec((0..10i64).collect::<Vec<_>>(), 2);
        // Mutates its copy before dying on every attempt: the partial
        // results must never land in the dataset.
        let err = ds
            .try_map_partitions_in_place(&e, "boom", |idx, part| {
                for x in part.iter_mut() {
                    *x = -1;
                }
                if idx == 1 {
                    panic!("bad partition");
                }
            })
            .unwrap_err();
        match err {
            EngineError::TaskPanicked {
                stage,
                task,
                attempts,
                ..
            } => {
                assert_eq!(stage, "boom");
                assert_eq!(task, 1);
                assert_eq!(attempts, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Unchanged, not emptied and not partially mutated.
        assert_eq!(ds.collect(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn in_place_recovers_from_injected_panic_bit_for_bit() {
        let clean = {
            let e = engine();
            let mut ds = Dataset::from_vec((0..40i64).collect::<Vec<_>>(), 4);
            ds.map_partitions_in_place(&e, |_, part| {
                for x in part.iter_mut() {
                    *x = x.wrapping_mul(17) ^ 3;
                }
            });
            ds.collect()
        };
        let e = Engine::new(
            EngineConfig::default()
                .with_threads(2)
                .with_retry(crate::RetryPolicy::clamped(2)),
        );
        e.set_fault_plan(crate::FaultPlan::new().panic_at("hot", 2, 0));
        let mut ds = Dataset::from_vec((0..40i64).collect::<Vec<_>>(), 4);
        ds.try_map_partitions_in_place(&e, "hot", |_, part| {
            for x in part.iter_mut() {
                *x = x.wrapping_mul(17) ^ 3;
            }
        })
        .unwrap();
        assert_eq!(ds.collect(), clean);
        let job = e.metrics().jobs().pop().unwrap();
        assert!(job.succeeded);
        assert_eq!(job.faults.injected_panics, 1);
        assert_eq!(job.faults.retries, 1);
        // Retry-safe stages run all-COW from pristine handles.
        assert_eq!(
            job.variant,
            crate::StageVariant::InPlace { unique: 0, cow: 4 }
        );
    }

    #[test]
    fn immutable_stage_recovers_from_injected_panic() {
        let e = Engine::new(
            EngineConfig::default()
                .with_threads(2)
                .with_retry(crate::RetryPolicy::clamped(3)),
        );
        e.set_fault_plan(crate::FaultPlan::new().panic_at("map_partitions", 0, 0));
        let ds = Dataset::from_vec((0..30i64).collect::<Vec<_>>(), 3);
        let out = ds
            .map_partitions(&e, |_, part| part.iter().map(|x| x + 1).collect())
            .collect();
        assert_eq!(out, (1..31).collect::<Vec<_>>());
        // Make sure the fault actually fired and was absorbed somewhere in
        // this engine's jobs.
        let totals = e.metrics().fault_totals();
        assert_eq!(totals.injected_panics, 1);
        assert_eq!(totals.retries, 1);
    }

    #[test]
    fn aggregate_partitions_returns_per_partition_results() {
        let e = engine();
        let ds = Dataset::from_vec((0..100u64).collect::<Vec<_>>(), 5);
        let sums = ds.aggregate_partitions(&e, |_, part| part.iter().sum::<u64>());
        assert_eq!(sums.len(), 5);
        assert_eq!(sums.iter().sum::<u64>(), 4950);
        // Read-only: the dataset is intact and the stage is immutable.
        assert_eq!(ds.len(), 100);
        let jobs = e.metrics().jobs();
        assert_eq!(jobs.last().unwrap().variant, crate::StageVariant::Immutable);
    }

    #[test]
    fn into_partitions_moves_handles_out() {
        let ds = Dataset::from_vec((0..6i32).collect::<Vec<_>>(), 2);
        let handles = ds.into_partitions();
        assert_eq!(handles.len(), 2);
        let owned: Vec<Vec<i32>> = handles
            .into_iter()
            .map(|h| Arc::try_unwrap(h).expect("unique"))
            .collect();
        assert_eq!(owned, vec![vec![0, 1, 2], vec![3, 4, 5]]);
    }
}
