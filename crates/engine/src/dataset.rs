//! Partitioned datasets — the RDD analogue.
//!
//! A [`Dataset<T>`] is a collection split into partitions, each held
//! behind an [`Arc`] so tasks can reference partition data without copying
//! it. A stage submits one task per partition to the engine's executor
//! pool, in one of two kinds: `map_partitions_in_place` mutates this
//! dataset and returns one scalar per partition (the posterior update),
//! `aggregate_partitions` only reads and returns one value per partition
//! (marginals, masses, look-ahead histograms); `collect` gathers to the
//! driver. No stage materializes an output dataset.
//!
//! Unlike Spark, execution is eager: each stage is one job. SBGT's dataflow
//! is a short pipeline of wide barriers over the lattice shards, so lazy
//! DAG fusion would buy nothing here — the Spark semantics it needs
//! (partition-parallelism, read-only state shared through an `Arc`,
//! barriers) are preserved.
//!
//! # Panics
//!
//! If a user closure panics inside a task, the convenience methods on
//! `Dataset` propagate the panic on the driver thread (like Spark rethrowing
//! an executor exception). Use the `try_*` variants to receive an
//! [`EngineError`](crate::EngineError) instead.

use std::sync::Arc;

use crate::error::Result;
use crate::partitioner::partition_ranges;
use crate::Engine;

/// A partitioned, in-memory collection.
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
}

impl<T: Send + Sync + 'static> Dataset<T> {
    /// In-place per-partition stage: each task receives `&mut [T]` for its
    /// partition and returns one scalar to the driver; **no output dataset
    /// is materialized**. This is the zero-copy primitive for iterated
    /// numeric passes (posterior updates), where a posterior-sized output
    /// per stage would dominate.
    ///
    /// # Uniqueness and copy-on-write
    ///
    /// A partition is mutated in place only when its `Arc` handle is
    /// uniquely owned by this dataset (checked per task with
    /// [`Arc::try_unwrap`]). If the handle is shared — a live clone of the
    /// dataset, a held [`Self::partition_handles`] handle — the task clones
    /// the partition and mutates the copy, so other owners never observe
    /// the mutation. Either way `self` ends up owning the updated
    /// partitions. The copied partitions are counted on the stage's
    /// aggregate as [`crate::StageAgg::copied_partitions`].
    ///
    /// # Errors
    ///
    /// A task failure (a panic, or an injected fault) loses the consumed
    /// partitions with the failed stage: the dataset is left **empty** (zero
    /// partitions). Callers that need the pre-stage data after a failure
    /// must keep a copy first — the service snapshots each cohort before a
    /// round while a fault plan is installed, and restores from it.
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
        let outputs = engine.run_stage(name, tasks)?;
        let mut results = Vec::with_capacity(outputs.len());
        let mut copied = 0;
        self.partitions = outputs
            .into_iter()
            .map(|(handle, result, unique)| {
                copied += usize::from(!unique);
                results.push(result);
                handle
            })
            .collect();
        if copied > 0 {
            engine.metrics().add_copied_partitions(name, copied);
        }
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
    use crate::metrics::tests::only_stage;
    use crate::{EngineConfig, EngineError, FaultPlan};

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
        assert_eq!(ds.len(), 2);
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
        let agg = only_stage(e.metrics());
        assert_eq!((agg.jobs, agg.tasks), (1, 4));
        assert_eq!(agg.copied_partitions, 0);
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
        assert_eq!(only_stage(e.metrics()).copied_partitions, 4);
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
        let agg = only_stage(e.metrics());
        assert_eq!((agg.tasks, agg.copied_partitions), (4, 1));
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
        match err.unwrap_err() {
            EngineError::TaskPanicked { stage, task, .. } => {
                assert_eq!(stage, "boom");
                assert_eq!(task, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(ds.num_partitions(), 0);
        assert!(ds.is_empty());
    }

    /// An injected panic kills an in-place stage exactly like a real one,
    /// while a shared snapshot taken before the stage keeps the pre-stage
    /// values to restore from.
    #[test]
    fn injected_panic_kills_in_place_stage_and_snapshot_survives() {
        let e = engine();
        e.set_fault_plan(FaultPlan::new().panic_at("hot", 2));
        let mut ds = Dataset::from_vec((0..40i64).collect::<Vec<_>>(), 4);
        let snapshot = ds.clone();
        let err = ds
            .try_map_partitions_in_place(&e, "hot", |_, part| {
                for x in part.iter_mut() {
                    *x = x.wrapping_mul(17) ^ 3;
                }
            })
            .unwrap_err();
        assert!(err.to_string().starts_with("stage 'hot': task 2"), "{err}");
        assert!(ds.is_empty());
        assert_eq!(snapshot.collect(), (0..40).collect::<Vec<_>>());
        let agg = only_stage(e.metrics());
        assert_eq!((agg.jobs, agg.failed_jobs), (1, 1));
        assert_eq!(e.metrics().fault_totals().injected_panics, 1);
    }

    #[test]
    fn aggregate_partitions_returns_per_partition_results() {
        let e = engine();
        let ds = Dataset::from_vec((0..100u64).collect::<Vec<_>>(), 5);
        let sums = ds.aggregate_partitions(&e, |_, part| part.iter().sum::<u64>());
        assert_eq!(sums.len(), 5);
        assert_eq!(sums.iter().sum::<u64>(), 4950);
        // Read-only: the dataset is intact and nothing was copied.
        assert_eq!(ds.len(), 100);
        let agg = only_stage(e.metrics());
        assert_eq!((agg.jobs, agg.tasks, agg.copied_partitions), (1, 5, 0));
    }

    /// Workers sharing one engine each see their own stages' accounting:
    /// copies land on the stage that made them, whatever ran in between.
    #[test]
    fn concurrent_stages_account_under_their_own_names() {
        const K: u64 = 40;
        const PARTS: usize = 4;
        let e = engine();
        // Both workers enter each in-place stage together.
        let barrier = std::sync::Barrier::new(2);
        let worker = |name: &'static str, stages: u64, shared: bool| {
            let (e, barrier) = (&e, &barrier);
            move || {
                let mut ds = Dataset::from_vec((0..64i64).collect::<Vec<_>>(), PARTS);
                // A live clone shares every partition handle.
                let _clone = shared.then(|| ds.clone());
                for _ in 0..stages {
                    barrier.wait();
                    ds.try_map_partitions_in_place(e, name, |_, part| {
                        part.iter_mut().for_each(|x| *x += 1)
                    })
                    .unwrap();
                    ds.try_aggregate_partitions(e, "read", |_, part| part.len())
                        .unwrap();
                }
            }
        };
        let stage = |name: &str| {
            let aggs = e.metrics().stage_aggregates();
            let agg = aggs.iter().find(|a| a.name == name).unwrap();
            (agg.jobs, agg.tasks, agg.copied_partitions)
        };
        std::thread::scope(|s| {
            s.spawn(worker("cohort-a", K, false));
            s.spawn(worker("cohort-b", K, false));
        });
        let parts = PARTS as u64;
        assert_eq!(stage("cohort-a"), (K, K * parts, 0));
        assert_eq!(stage("cohort-b"), (K, K * parts, 0));
        assert_eq!(stage("read"), (2 * K, 2 * K * parts, 0));
        // One stage over a dataset with a live clone copies every
        // partition, and only its own name says so.
        std::thread::scope(|s| {
            s.spawn(worker("cohort-a", 1, true));
            s.spawn(worker("cohort-b", 1, false));
        });
        assert_eq!(stage("cohort-a"), (K + 1, (K + 1) * parts, parts));
        assert_eq!(stage("cohort-b"), (K + 1, (K + 1) * parts, 0));
        assert_eq!(stage("read"), (2 * K + 2, (2 * K + 2) * parts, 0));
    }
}
