//! The engine-sharded posterior — SBGT's Spark mapping.
//!
//! The paper distributes the `2^N` lattice as an RDD of contiguous index
//! shards; every operator is a stage of per-partition tasks with the
//! likelihood table shipped as a broadcast variable and scalar results
//! tree-reduced to the driver. [`ShardedPosterior`] reproduces that
//! architecture on [`sbgt_engine`]:
//!
//! * the posterior lives as a [`Dataset<f64>`] whose partition `p` covers
//!   states `offsets[p] .. offsets[p] + len(p)` (state id = global index,
//!   so tasks recover each state's bitmask from its position — no keys, no
//!   gathers, no shuffle);
//! * updates are in-place stages that also emit their partial sum,
//!   so normalization needs no second traversal (the posterior tracks its
//!   running total instead of rescaling shards — Spark SBGT's trick of
//!   folding the normalizing constant into the driver state);
//! * marginals / down-set masses / prefix masses are aggregate stages.
//!
//! The hot loop runs through the engine's **in-place stage layer**
//! ([`Dataset::map_partitions_in_place`]): updates multiply shard values
//! through uniquely-owned `Arc` handles and return only per-partition
//! partial sums, so an observation allocates nothing posterior-sized — no
//! output dataset, no driver-side clones. Read-only aggregations
//! (marginals, masses) run as `aggregate_partitions` stages that ship one
//! small record per partition to the driver. [`ShardedPosterior::fused_round`]
//! goes further and computes update + marginals + prefix-negative-mass
//! histogram in a single traversal, making a full BHA round one stage
//! instead of three. Per-stage variants land in the engine's metrics
//! registry, giving the E9 breakdown.
//!
//! Every per-partition body is a block kernel from [`sbgt_lattice::dense`]
//! (the same one `DensePosterior` runs per block); this module only
//! chooses the partitions and combines their partials in partition order,
//! so one partition gives the bits of a one-block in-memory pass.

use std::sync::Arc;

use sbgt_bayes::BayesError;
use sbgt_engine::{Dataset, Engine};
use sbgt_lattice::dense::{
    add_into, expand_block, first_pos_histogram, marginal_sums, normalize_marginals, order_tables,
    project_block, suffix_sums,
};
use sbgt_lattice::simd;
use sbgt_lattice::{
    hybrid, pdep, BranchPool, DensePosterior, LookaheadKernel, SparsePosterior, State,
};
use sbgt_response::ResponseModel;

/// Everything one fused BHA round produces: the Bayesian update applied
/// in place, plus the post-update statistics the next round needs,
/// computed in the same traversal.
#[derive(Debug, Clone)]
pub struct FusedRound {
    /// Model evidence of the observation (relative to the pre-round total).
    pub evidence: f64,
    /// Post-update normalized marginals.
    pub marginals: Vec<f64>,
    /// Post-update unnormalized all-prefix pool-negative masses for the
    /// `order` passed to [`ShardedPosterior::fused_round`]
    /// (`masses[k]` = mass with the first `k` subjects of `order` all
    /// negative; `masses[0]` = new total).
    pub prefix_negative_masses: Vec<f64>,
    /// The subjects whose unnormalised post-update marginal mass is exactly
    /// `0.0`, as a bitmask.
    pub massless: u64,
}

/// A posterior sharded across engine partitions.
///
/// The shard values are **unnormalized**; `total` carries the current
/// normalization constant. All probability-returning methods divide by it.
///
/// Cloning is cheap: clones share the shard storage (`Arc` handles), so
/// the next in-place update on either copy takes the copy-on-write path
/// and leaves the other copy untouched.
#[derive(Clone)]
pub struct ShardedPosterior {
    n_subjects: usize,
    shards: Dataset<f64>,
    /// Global state index where each partition begins.
    offsets: Arc<Vec<u64>>,
    total: f64,
}

impl ShardedPosterior {
    /// Shard a dense posterior into `parts` contiguous partitions, at most
    /// one per state: an empty shard would add only `+0.0` to every
    /// reduction, and [`Self::from_shards`] rejects it, so a snapshot of a
    /// lattice smaller than `parts` must not carry one.
    pub fn from_dense(dense: &DensePosterior, parts: usize) -> Self {
        let shards = Dataset::from_vec(dense.probs().to_vec(), parts.min(dense.len()));
        let offsets = Self::offsets_of(&shards);
        // The sharded path keeps its own order (DESIGN.md §3,
        // **Parallelism**): its total is a plain sequential sum, not the
        // in-memory block fold.
        let total = dense.probs().iter().sum();
        ShardedPosterior {
            n_subjects: dense.n_subjects(),
            shards,
            offsets: Arc::new(offsets),
            total,
        }
    }

    fn offsets_of(shards: &Dataset<f64>) -> Vec<u64> {
        let mut offsets = Vec::with_capacity(shards.num_partitions());
        let mut acc = 0u64;
        for p in 0..shards.num_partitions() {
            offsets.push(acc);
            acc += shards.partition(p).len() as u64;
        }
        offsets
    }

    /// Cohort size.
    pub fn n_subjects(&self) -> usize {
        self.n_subjects
    }

    /// Number of shards.
    pub fn num_partitions(&self) -> usize {
        self.shards.num_partitions()
    }

    /// Current normalization constant (unnormalized total mass).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Exact unnormalized shard values, one vector per partition — the
    /// checkpoint payload. Together with [`Self::total`] this is the full
    /// posterior state; [`Self::from_shards`] rebuilds it bit-for-bit.
    pub fn shard_values(&self) -> Vec<Vec<f64>> {
        self.shards
            .partition_handles()
            .iter()
            .map(|h| h.as_ref().clone())
            .collect()
    }

    /// Rebuild a posterior from checkpointed shards. Partition boundaries
    /// are preserved exactly as captured, so every subsequent per-partition
    /// reduction — and therefore every downstream float — matches the
    /// pre-checkpoint posterior bit-for-bit.
    pub fn from_shards(
        n_subjects: usize,
        shards: Vec<Vec<f64>>,
        total: f64,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let want = 1usize
            .checked_shl(n_subjects as u32)
            .filter(|_| n_subjects <= 63)
            .ok_or_else(|| {
                SnapshotError::Corrupt(format!("cohort size {n_subjects} overflows u64"))
            })?;
        let got: usize = shards.iter().map(|s| s.len()).sum();
        if got != want {
            return Err(SnapshotError::Corrupt(format!(
                "shards hold {got} values, lattice needs {want}"
            )));
        }
        if shards.iter().any(|s| s.is_empty()) {
            return Err(SnapshotError::Corrupt("empty shard".into()));
        }
        if !(total.is_finite() && total > 0.0) {
            return Err(SnapshotError::Corrupt(format!(
                "non-positive total {total}"
            )));
        }
        let shards = Dataset::from_partitions(shards);
        let offsets = Self::offsets_of(&shards);
        Ok(ShardedPosterior {
            n_subjects,
            shards,
            offsets: Arc::new(offsets),
            total,
        })
    }

    /// Count states above the relative prune cut (`p > ε · total`, `p > 0`)
    /// as one read-only aggregate stage — the sharded equivalent of
    /// [`sbgt_lattice::hybrid::retained_support`] on the collected dense
    /// posterior, at shard-traversal cost instead of a materialization.
    pub fn retained_support(&self, engine: &Engine, epsilon: f64) -> usize {
        let keep = hybrid::keeps(self.total, epsilon);
        let partials: Vec<usize> = self
            .shards
            .try_aggregate_partitions(engine, "sparse:support", move |_pidx, probs| {
                probs.iter().filter(|&&p| keep(p)).count()
            })
            .unwrap_or_else(|e| panic!("dataset job failed: {e}"));
        partials.iter().sum()
    }

    /// Materialize the pruned, **normalized** sparse equivalent as one
    /// read-only aggregate stage: each partition ships its retained
    /// `(state, mass)` entries, the driver concatenates (partitions are
    /// contiguous state ranges, so the result is sorted), scales by
    /// `1/total`, and books the dropped share as pruned mass — exactly
    /// what [`SparsePosterior::from_dense`] produces on
    /// [`Self::to_dense`]'s output, modulo the normalization that
    /// `to_dense` applies up front.
    pub fn to_sparse(&self, engine: &Engine, epsilon: f64) -> SparsePosterior {
        let total = self.total;
        let keep = hybrid::keeps(total, epsilon);
        let offsets = Arc::clone(&self.offsets);
        let partials: Vec<Vec<(State, f64)>> = self
            .shards
            .try_aggregate_partitions(engine, "sparse:collect", move |pidx, probs| {
                let base = offsets[pidx];
                probs
                    .iter()
                    .enumerate()
                    .filter(|&(_, &p)| keep(p))
                    .map(|(off, &p)| (State(base + off as u64), p))
                    .collect()
            })
            .unwrap_or_else(|e| panic!("dataset job failed: {e}"));
        let mut entries: Vec<(State, f64)> = partials.into_iter().flatten().collect();
        let mut retained = 0.0;
        if total > 0.0 {
            let inv = 1.0 / total;
            for (_, p) in &mut entries {
                retained += *p;
                *p *= inv;
            }
        }
        let pruned = if total > 0.0 {
            ((total - retained) / total).max(0.0)
        } else {
            0.0
        };
        SparsePosterior::from_parts(self.n_subjects, entries, pruned)
    }

    /// Collect back into a dense, **normalized** posterior.
    pub fn to_dense(&self, _engine: &Engine) -> DensePosterior {
        let mut probs = self.shards.collect();
        if self.total > 0.0 {
            let inv = 1.0 / self.total;
            for p in &mut probs {
                *p *= inv;
            }
        }
        DensePosterior::from_probs(self.n_subjects, probs)
    }

    /// Bayesian update as a **zero-copy in-place stage**: share the
    /// likelihood table with every task through an `Arc` (Spark's
    /// broadcast variable), multiply every shard through its uniquely-owned
    /// handle, return only per-partition partial sums. No posterior-sized
    /// buffer is allocated. Returns the model evidence.
    ///
    /// If the observation is impossible (`new_total` not finite-positive)
    /// the shard values have already been multiplied by the zero table and
    /// the posterior is degenerate; like the dense fused update, callers
    /// must treat the posterior as unusable after this error.
    ///
    /// # Panics
    /// Panics when the stage fails (an injected fault): the shards were
    /// consumed by the failed stage, so the posterior is unusable until
    /// restored from a snapshot — what the service's round rollback does.
    pub fn update<M: ResponseModel>(
        &mut self,
        engine: &Engine,
        model: &M,
        pool: State,
        outcome: M::Outcome,
    ) -> Result<f64, BayesError> {
        if pool.is_empty() {
            return Err(BayesError::EmptyPool);
        }
        let table = Arc::new(model.likelihood_table(outcome, pool.rank()));
        let mask = pool.bits();
        let offsets = Arc::clone(&self.offsets);

        let partial_sums = self
            .shards
            .try_map_partitions_in_place(engine, "update:in-place", move |pidx, probs| {
                simd::mul_table_block(probs, offsets[pidx], mask, &table)
            })
            .unwrap_or_else(|e| panic!("dataset job failed: {e}"));

        let new_total: f64 = partial_sums.iter().sum();
        if !(new_total.is_finite() && new_total > 0.0) {
            return Err(BayesError::ImpossibleObservation);
        }
        let evidence = new_total / self.total;
        self.total = new_total;
        Ok(evidence)
    }

    /// Fused BHA superstage: apply the Bayesian update **and** compute the
    /// post-update marginals and all-prefix pool-negative masses in one
    /// in-place traversal per partition — a full round in one stage
    /// instead of three.
    ///
    /// `order` is the candidate subject ordering for the prefix masses.
    /// Since the masses are computed in the same traversal that updates
    /// the posterior, callers necessarily supply an ordering derived from
    /// the *previous* round's marginals (the returned masses themselves
    /// are exact for the updated posterior). Running marginals and
    /// [`Self::prefix_negative_masses`] as separate stages removes that
    /// one-round staleness at the cost of an extra traversal.
    pub fn fused_round<M: ResponseModel>(
        &mut self,
        engine: &Engine,
        model: &M,
        pool: State,
        outcome: M::Outcome,
        order: &[usize],
    ) -> Result<FusedRound, BayesError> {
        if pool.is_empty() {
            return Err(BayesError::EmptyPool);
        }
        let table = model.likelihood_table(outcome, pool.rank());
        self.fused_round_with(engine, table, pool, order)
    }

    /// [`Self::fused_round`] with the likelihood table given: `table[k]` is
    /// the likelihood of the observed outcome with `k` positives in `pool`.
    /// A pool some of whose members the posterior no longer stores keeps
    /// the table of its full size, so dilution still sees every member.
    pub(crate) fn fused_round_with(
        &mut self,
        engine: &Engine,
        table: Vec<f64>,
        pool: State,
        order: &[usize],
    ) -> Result<FusedRound, BayesError> {
        let n = self.n_subjects;
        let m = order.len();
        let table = Arc::new(table);
        let mask = pool.bits();
        let offsets = Arc::clone(&self.offsets);
        let kernel = Arc::new(LookaheadKernel::new(n, order));

        let partials = self
            .shards
            .try_map_partitions_in_place(engine, "fused-round:in-place", move |pidx, probs| {
                // Update + marginal accumulation + first-positive histogram
                // on the post-update values, one SIMD-dispatched
                // cache-resident pass per partition.
                let mut acc = vec![0.0f64; n];
                let mut hist = vec![0.0f64; m + 1];
                let sum = simd::fused_update_block(
                    probs,
                    offsets[pidx],
                    mask,
                    &table,
                    &kernel,
                    &mut acc,
                    &mut hist,
                );
                (sum, acc, hist)
            })
            .unwrap_or_else(|e| panic!("dataset job failed: {e}"));

        let mut new_total = 0.0;
        let mut marginals = vec![0.0f64; n];
        let mut hist = vec![0.0f64; m + 1];
        for (sum, acc, local_hist) in partials {
            new_total += sum;
            add_into(&mut marginals, &acc);
            add_into(&mut hist, &local_hist);
        }
        if !(new_total.is_finite() && new_total > 0.0) {
            return Err(BayesError::ImpossibleObservation);
        }
        let evidence = new_total / self.total;
        self.total = new_total;
        let massless = massless(&marginals);
        normalize_marginals(&mut marginals, new_total);
        Ok(FusedRound {
            evidence,
            marginals,
            prefix_negative_masses: suffix_sums(&hist),
            massless,
        })
    }

    /// The subjects whose unnormalised marginal mass is exactly `0.0`,
    /// summed on the driver partition by partition: what a restore, which
    /// has no engine, needs to find the subjects a snapshot no longer
    /// stores.
    pub(crate) fn massless(&self) -> u64 {
        let mut acc = vec![0.0f64; self.n_subjects];
        for (p, &base) in self.offsets.iter().enumerate() {
            marginal_sums(self.shards.partition(p), base, &mut acc);
        }
        massless(&acc)
    }

    /// The posterior of the subjects in `keep`, every other subject summed
    /// out, read partition by partition on the driver: each partition's
    /// states add into the `2^m`-state result in ascending state order
    /// ([`project_block`], the kernel of [`DensePosterior::project`]), and
    /// the result is re-split into `parts.min(2^m)` shards, where `parts`
    /// is the current partition count. The total is kept. When every
    /// summed-out subject is massless each target is `p + 0.0`, so every
    /// surviving mass keeps its bits, and no lattice larger than `2^m` is
    /// built.
    pub(crate) fn project(&self, keep: u64) -> ShardedPosterior {
        let m = keep.count_ones() as usize;
        let mut probs = vec![0.0f64; 1 << m];
        for (p, &base) in self.offsets.iter().enumerate() {
            project_block(self.shards.partition(p), base, keep, &mut probs);
        }
        let parts = self.num_partitions().min(probs.len());
        let shards = Dataset::from_vec(probs, parts);
        let offsets = Self::offsets_of(&shards);
        ShardedPosterior {
            n_subjects: m,
            shards,
            offsets: Arc::new(offsets),
            total: self.total,
        }
    }

    /// The posterior over `n` subjects of which this one is the projection
    /// onto `keep` ([`DensePosterior::expand`]), with the partitions of
    /// this one: partition `p` of the result starts at the state its first
    /// state deposits to. The total is kept, so [`Self::project`] onto
    /// `keep` gives back every bit and every boundary.
    pub(crate) fn expand(&self, keep: u64, n: usize) -> ShardedPosterior {
        let k = self.num_partitions();
        let starts: Vec<u64> = self.offsets.iter().map(|&o| pdep(o, keep)).collect();
        let shards = (0..k)
            .map(|p| {
                let end = starts.get(p + 1).copied().unwrap_or(1 << n);
                let mut out = vec![0.0f64; (end - starts[p]) as usize];
                expand_block(self.shards.partition(p), self.offsets[p], keep, &mut out);
                out
            })
            .collect();
        ShardedPosterior {
            n_subjects: n,
            shards: Dataset::from_partitions(shards),
            offsets: Arc::new(starts),
            total: self.total,
        }
    }

    /// Marginals as a read-only aggregate stage (per-partition local
    /// accumulators shipped to the driver — no dataset materialized).
    pub fn marginals(&self, engine: &Engine) -> Vec<f64> {
        let n = self.n_subjects;
        let offsets = Arc::clone(&self.offsets);
        let partials: Vec<(Vec<f64>, f64)> =
            self.shards
                .aggregate_partitions(engine, move |pidx, probs| {
                    let mut acc = vec![0.0f64; n];
                    let total = marginal_sums(probs, offsets[pidx], &mut acc);
                    (acc, total)
                });
        let mut acc = vec![0.0f64; n];
        let mut total = 0.0;
        for (local, t) in partials {
            total += t;
            add_into(&mut acc, &local);
        }
        normalize_marginals(&mut acc, total);
        acc
    }

    /// All-prefix pool-negative probabilities (the selection kernel) as a
    /// read-only aggregate stage: per-partition first-positive histograms,
    /// reduced and suffix-summed on the driver.
    pub fn prefix_negative_masses(&self, engine: &Engine, order: &[usize]) -> Vec<f64> {
        let rows = order.len() + 1;
        let tables = Arc::new(order_tables(self.n_subjects, order));
        let offsets = Arc::clone(&self.offsets);
        let partials: Vec<Vec<f64>> =
            self.shards
                .aggregate_partitions(engine, move |pidx, probs| {
                    let mut hist = vec![0.0f64; rows];
                    first_pos_histogram(&tables, probs, offsets[pidx], &mut hist);
                    hist
                });
        let mut hist = vec![0.0f64; rows];
        for local in partials {
            add_into(&mut hist, &local);
        }
        suffix_sums(&hist)
    }

    /// Branch-fused look-ahead histograms as a read-only aggregate stage —
    /// the engine-sharded half of the look-ahead selection fast path.
    ///
    /// Each task runs [`LookaheadKernel::histograms`] over its partition's
    /// contiguous state range (committed pools shared through an `Arc`,
    /// exactly like update likelihood tables) and sends one
    /// `(m + 1) × 2^j` histogram to the driver, where the partials are
    /// reduced elementwise in partition order. **Nothing posterior-sized is
    /// allocated and no shard is written** — the stage reads the same
    /// shared handles the updates mutate in place between stages.
    pub fn lookahead_histograms(
        &self,
        engine: &Engine,
        kernel: &Arc<LookaheadKernel>,
        pools: Vec<BranchPool>,
    ) -> Vec<f64> {
        let nb = 1usize << pools.len();
        let rows = kernel.num_prefixes();
        let kernel = Arc::clone(kernel);
        let pools = Arc::new(pools);
        let offsets = Arc::clone(&self.offsets);
        let partials: Vec<Vec<f64>> = self
            .shards
            .try_aggregate_partitions(engine, "lookahead:select", move |pidx, probs| {
                kernel.histograms(probs, offsets[pidx], &pools)
            })
            .unwrap_or_else(|e| panic!("dataset job failed: {e}"));
        let mut hist = vec![0.0f64; rows * nb];
        for local in partials {
            add_into(&mut hist, &local);
        }
        hist
    }
}

/// The subjects whose mass in `sums` is exactly `0.0`, as a bitmask. A sum
/// of non-negative masses is `0.0` only when every one of them is.
pub(crate) fn massless(sums: &[f64]) -> u64 {
    sums.iter()
        .enumerate()
        .filter(|(_, &a)| a == 0.0)
        .fold(0, |mask, (i, _)| mask | 1 << i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgt_bayes::{update_dense, Observation, Prior};
    use sbgt_engine::EngineConfig;
    use sbgt_response::BinaryDilutionModel;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + a.abs() + b.abs())
    }

    fn engine() -> Engine {
        Engine::new(EngineConfig::default().with_threads(2))
    }

    fn risks() -> Vec<f64> {
        vec![0.02, 0.07, 0.01, 0.12, 0.05, 0.03, 0.09, 0.2]
    }

    #[test]
    fn sharded_update_matches_dense() {
        let e = engine();
        let model = BinaryDilutionModel::pcr_like();
        let mut dense = Prior::from_risks(&risks()).to_dense();
        let mut sharded = ShardedPosterior::from_dense(&dense, 5);
        assert_eq!(sharded.num_partitions(), 5);

        let tests = [
            (State::from_subjects([0, 1, 2, 3]), true),
            (State::from_subjects([4, 5]), false),
            (State::from_subjects([0]), true),
        ];
        for (pool, outcome) in tests {
            let zd = update_dense(&mut dense, &model, &Observation::new(pool, outcome)).unwrap();
            let zs = sharded.update(&e, &model, pool, outcome).unwrap();
            assert!(close(zd, zs), "evidence {zd} vs {zs}");
        }
        let back = sharded.to_dense(&e);
        for (a, b) in dense.probs().iter().zip(back.probs()) {
            assert!(close(*a, *b));
        }
    }

    #[test]
    fn sharded_aggregates_match_dense() {
        let e = engine();
        let dense = Prior::from_risks(&risks()).to_dense();
        let sharded = ShardedPosterior::from_dense(&dense, 7);
        for (a, b) in dense.marginals().iter().zip(sharded.marginals(&e)) {
            assert!(close(*a, b));
        }
        let order = [3usize, 0, 7, 2, 5];
        let dm = dense.prefix_negative_masses(&order);
        let sm = sharded.prefix_negative_masses(&e, &order);
        for (a, b) in dm.iter().zip(&sm) {
            assert!(close(*a, *b));
        }
    }

    #[test]
    fn evidence_is_relative_to_running_total() {
        // Two consecutive updates: each reported evidence must match the
        // dense (renormalizing) implementation even though shards never
        // rescale.
        let e = engine();
        let model = BinaryDilutionModel::pcr_like();
        let mut sharded = ShardedPosterior::from_dense(&Prior::flat(6, 0.1).to_dense(), 3);
        let z1 = sharded
            .update(&e, &model, State::from_subjects([0, 1, 2]), false)
            .unwrap();
        let z2 = sharded
            .update(&e, &model, State::from_subjects([3, 4]), true)
            .unwrap();
        assert!(z1 > z2, "negative pool at 10% prevalence is likelier");
        assert!(z1 < 1.0 && z2 < 1.0);
    }

    #[test]
    fn error_paths() {
        let e = engine();
        let model = BinaryDilutionModel::perfect();
        let mut sharded = ShardedPosterior::from_dense(&Prior::flat(4, 0.1).to_dense(), 2);
        assert_eq!(
            sharded.update(&e, &model, State::EMPTY, true).unwrap_err(),
            BayesError::EmptyPool
        );
        let pool = State::from_subjects([0, 1, 2, 3]);
        sharded.update(&e, &model, pool, false).unwrap();
        assert_eq!(
            sharded.update(&e, &model, pool, true).unwrap_err(),
            BayesError::ImpossibleObservation
        );
    }

    #[test]
    fn stage_metrics_are_recorded() {
        let e = engine();
        let model = BinaryDilutionModel::pcr_like();
        let mut sharded = ShardedPosterior::from_dense(&Prior::flat(6, 0.1).to_dense(), 4);
        e.metrics().clear();
        sharded
            .update(&e, &model, State::from_subjects([0, 1]), false)
            .unwrap();
        sharded.marginals(&e);
        // The update ran as an in-place stage over uniquely-owned shards,
        // copying none; the marginals stage is a read-only aggregation.
        let aggs = e.metrics().stage_aggregates();
        let stages: Vec<_> = aggs
            .iter()
            .map(|a| (a.name.as_str(), a.jobs, a.tasks, a.copied_partitions))
            .collect();
        assert_eq!(
            stages,
            [
                ("aggregate_partitions", 1, 4, 0),
                ("update:in-place", 1, 4, 0)
            ]
        );
    }

    /// The posterior update, the hottest stage, is visible per task: at
    /// `Full` it records one task span per partition, each carrying its
    /// stage span's sequence number.
    #[test]
    fn full_traced_update_records_a_task_span_per_partition() {
        use sbgt_engine::{ObsConfig, SpanKind};
        let e = Engine::new(
            EngineConfig::default()
                .with_threads(2)
                .with_obs(ObsConfig::full()),
        );
        let mut sharded = ShardedPosterior::from_dense(&Prior::flat(6, 0.1).to_dense(), 4);
        sharded
            .update(
                &e,
                &BinaryDilutionModel::pcr_like(),
                State::from_subjects([0, 1]),
                true,
            )
            .unwrap();
        let rec = e.obs();
        let snap = rec.snapshot();
        let named = |kind| {
            snap.all_events()
                .filter(|ev| ev.kind == kind && rec.name_of(ev.name) == "update:in-place")
                .collect::<Vec<_>>()
        };
        let stages = named(SpanKind::Stage);
        assert_eq!(stages.len(), 1);
        let tasks = named(SpanKind::Task);
        assert_eq!(tasks.len(), 4, "one task span per partition");
        assert!(tasks.iter().all(|t| t.meta.seq == stages[0].meta.seq));
        let mut indices: Vec<u32> = tasks.iter().map(|t| t.meta.task).collect();
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1, 2, 3]);
    }

    #[test]
    fn fused_round_matches_separate_stages() {
        let e = engine();
        let model = BinaryDilutionModel::pcr_like();
        let dense = Prior::from_risks(&risks()).to_dense();
        let mut fused = ShardedPosterior::from_dense(&dense, 5);
        let mut staged = ShardedPosterior::from_dense(&dense, 5);
        let pool = State::from_subjects([1, 3, 6]);
        let order = [3usize, 0, 7, 2, 5];

        let round = fused.fused_round(&e, &model, pool, true, &order).unwrap();
        let z = staged.update(&e, &model, pool, true).unwrap();
        assert!(close(round.evidence, z));
        for (a, b) in round.marginals.iter().zip(staged.marginals(&e)) {
            assert!(close(*a, b));
        }
        let masses = staged.prefix_negative_masses(&e, &order);
        assert_eq!(round.prefix_negative_masses.len(), masses.len());
        for (a, b) in round.prefix_negative_masses.iter().zip(&masses) {
            assert!(close(*a, *b));
        }
        // And the posteriors themselves agree.
        let a = fused.to_dense(&e);
        let b = staged.to_dense(&e);
        for (x, y) in a.probs().iter().zip(b.probs()) {
            assert!(close(*x, *y));
        }
    }

    /// Subjects 1 and 4 of seven are massless after a perfect negative
    /// pool: projecting them out of five shards keeps every surviving
    /// mass's bits and re-splits the 32 states into five balanced shards;
    /// expanding writes the zeros back, and projecting the expansion gives
    /// back every shard boundary and bit.
    #[test]
    fn projection_of_massless_subjects_keeps_bits_and_expansion_undoes_it() {
        let e = engine();
        let model = BinaryDilutionModel::perfect();
        let dense = Prior::from_risks(&[0.1, 0.2, 0.05, 0.3, 0.15, 0.08, 0.12]).to_dense();
        let mut sharded = ShardedPosterior::from_dense(&dense, 5);
        let round = sharded
            .fused_round(&e, &model, State::from_subjects([1, 4]), false, &[0, 2])
            .unwrap();
        assert_eq!(round.massless, 0b1_0010);
        assert_eq!(sharded.massless(), round.massless);
        let keep = 0b110_1101;
        let projected = sharded.project(keep);
        assert_eq!(projected.n_subjects(), 5);
        assert_eq!(projected.num_partitions(), 5);
        assert_eq!(projected.total().to_bits(), sharded.total().to_bits());
        assert_eq!(projected.massless(), 0);
        let gathered = sharded.shards.collect();
        let want: Vec<u64> = gathered
            .iter()
            .enumerate()
            .filter(|&(s, _)| s as u64 & !keep == 0)
            .map(|(_, p)| p.to_bits())
            .collect();
        let got: Vec<u64> = projected
            .shards
            .collect()
            .iter()
            .map(|p| p.to_bits())
            .collect();
        assert_eq!(got, want);
        let back = projected.expand(keep, 7);
        assert_eq!(back.project(keep).shard_values(), projected.shard_values());
        let deposited = projected.offsets.iter().map(|&o| pdep(o, keep));
        assert!(back.offsets.iter().copied().eq(deposited));
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(back.shards.collect()), bits(gathered));
        // A lattice smaller than the partition count keeps one state each.
        let tiny = projected.project(0b1);
        assert_eq!((tiny.num_partitions(), tiny.n_subjects()), (2, 1));
    }

    #[test]
    fn fused_round_error_paths() {
        let e = engine();
        let model = BinaryDilutionModel::perfect();
        let mut sharded = ShardedPosterior::from_dense(&Prior::flat(4, 0.1).to_dense(), 2);
        assert_eq!(
            sharded
                .fused_round(&e, &model, State::EMPTY, true, &[0, 1])
                .unwrap_err(),
            BayesError::EmptyPool
        );
        let pool = State::from_subjects([0, 1, 2, 3]);
        sharded
            .fused_round(&e, &model, pool, false, &[0, 1])
            .unwrap();
        assert_eq!(
            sharded
                .fused_round(&e, &model, pool, true, &[0, 1])
                .unwrap_err(),
            BayesError::ImpossibleObservation
        );
    }

    #[test]
    fn lookahead_histograms_match_dense_kernel() {
        let e = engine();
        let model = BinaryDilutionModel::pcr_like();
        let dense = Prior::from_risks(&risks()).to_dense();
        let sharded = ShardedPosterior::from_dense(&dense, 5);
        let order = [3usize, 0, 7, 2, 5];
        let kernel = Arc::new(LookaheadKernel::new(dense.n_subjects(), &order));
        let make_pool = |subjects: &[usize]| {
            let pool = State::from_subjects(subjects.iter().copied());
            BranchPool {
                mask: pool.bits(),
                tables: [
                    model.likelihood_table(false, pool.rank()),
                    model.likelihood_table(true, pool.rank()),
                ],
            }
        };
        for pools in [
            vec![],
            vec![make_pool(&[3, 0])],
            vec![make_pool(&[3, 0]), make_pool(&[7, 2, 5])],
        ] {
            e.metrics().clear();
            let sharded_hist = sharded.lookahead_histograms(&e, &kernel, pools.clone());
            let dense_hist = kernel.histograms(dense.probs(), 0, &pools);
            assert_eq!(sharded_hist.len(), dense_hist.len());
            for (a, b) in sharded_hist.iter().zip(&dense_hist) {
                assert!(close(*a, *b));
            }
            // The selection is one read-only stage.
            let aggs = e.metrics().stage_aggregates();
            assert_eq!(aggs.len(), 1);
            assert_eq!(
                (aggs[0].name.as_str(), aggs[0].jobs),
                ("lookahead:select", 1)
            );
            assert_eq!(aggs[0].copied_partitions, 0);
        }
    }

    #[test]
    fn update_copies_on_write_when_shards_are_shared() {
        // A dataflow consumer holding the shard dataset must not observe
        // the in-place update (Spark datasets are immutable to observers).
        let e = engine();
        let model = BinaryDilutionModel::pcr_like();
        let dense = Prior::from_risks(&risks()).to_dense();
        let mut sharded = ShardedPosterior::from_dense(&dense, 3);
        let snapshot = sharded.shards.clone();
        sharded
            .update(&e, &model, State::from_subjects([0, 1]), false)
            .unwrap();
        // Snapshot still holds the prior values.
        for (a, b) in snapshot.collect().iter().zip(dense.probs()) {
            assert!(close(*a, *b));
        }
        let copied = || {
            let aggs = e.metrics().stage_aggregates();
            let update = aggs.iter().find(|a| a.name == "update:in-place").unwrap();
            (update.jobs, update.copied_partitions)
        };
        assert_eq!(copied(), (1, 3));
        // The next update is unique again: the COW pass re-established
        // sole ownership of every shard handle.
        sharded
            .update(&e, &model, State::from_subjects([2]), false)
            .unwrap();
        assert_eq!(copied(), (2, 3));
    }
}
