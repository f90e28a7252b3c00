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
//! * updates are `map_partitions` stages that also emit their partial sum,
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

use std::sync::Arc;

use sbgt_bayes::BayesError;
use sbgt_engine::{Dataset, Engine, StageVariant};
use sbgt_lattice::{simd, BranchPool, DensePosterior, LookaheadKernel, SparsePosterior, State};
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
    /// Shard a dense posterior into `parts` contiguous partitions.
    pub fn from_dense(dense: &DensePosterior, parts: usize) -> Self {
        let shards = Dataset::from_vec(dense.probs().to_vec(), parts);
        let offsets = Self::offsets_of(&shards);
        let total = dense.total();
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
        let cut = if self.total > 0.0 {
            epsilon * self.total
        } else {
            0.0
        };
        let partials: Vec<usize> = self
            .shards
            .try_aggregate_partitions(engine, "sparse:support", move |_pidx, probs| {
                probs.iter().filter(|&&p| p > cut && p > 0.0).count()
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
        let cut = if total > 0.0 { epsilon * total } else { 0.0 };
        let offsets = Arc::clone(&self.offsets);
        let partials: Vec<Vec<(State, f64)>> = self
            .shards
            .try_aggregate_partitions(engine, "sparse:collect", move |pidx, probs| {
                let base = offsets[pidx];
                probs
                    .iter()
                    .enumerate()
                    .filter(|&(_, &p)| p > cut && p > 0.0)
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

    /// Bayesian update as a **zero-copy in-place stage**: broadcast the
    /// likelihood table, multiply every shard through its uniquely-owned
    /// handle, return only per-partition partial sums. No posterior-sized
    /// buffer is allocated. Returns the model evidence.
    ///
    /// If the observation is impossible (`new_total` not finite-positive)
    /// the shard values have already been multiplied by the zero table and
    /// the posterior is degenerate; like the dense fused update, callers
    /// must treat the posterior as unusable after this error.
    ///
    /// When the engine's fault tolerance is active (retries, speculation,
    /// or an installed fault plan) the stage instead runs copy-on-write
    /// from pristine driver-held handles: task failures retry against
    /// unmutated input and recover **bit-for-bit** — the closure is pure
    /// and partials are reduced in task order — while a permanently failed
    /// stage leaves the shards untouched.
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
        let table = engine.broadcast(model.likelihood_table(outcome, pool.rank()));
        let mask = pool.bits();
        let offsets = Arc::clone(&self.offsets);

        let partial_sums = self
            .shards
            .try_map_partitions_in_place(engine, "update:in-place", move |pidx, probs| {
                mul_table_in_place(probs, offsets[pidx], mask, table.value())
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
        let n = self.n_subjects;
        let m = order.len();
        let table = engine.broadcast(model.likelihood_table(outcome, pool.rank()));
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
                    table.value(),
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
            for (a, l) in marginals.iter_mut().zip(&acc) {
                *a += l;
            }
            for (h, l) in hist.iter_mut().zip(&local_hist) {
                *h += l;
            }
        }
        if !(new_total.is_finite() && new_total > 0.0) {
            return Err(BayesError::ImpossibleObservation);
        }
        let evidence = new_total / self.total;
        self.total = new_total;
        for a in &mut marginals {
            *a /= new_total;
        }
        Ok(FusedRound {
            evidence,
            marginals,
            prefix_negative_masses: Self::suffix_sum(hist),
        })
    }

    /// Marginals as a read-only aggregate stage (per-partition local
    /// accumulators shipped to the driver — no dataset materialized).
    pub fn marginals(&self, engine: &Engine) -> Vec<f64> {
        let n = self.n_subjects;
        let offsets = Arc::clone(&self.offsets);
        let partials: Vec<(Vec<f64>, f64)> =
            self.shards
                .aggregate_partitions(engine, move |pidx, probs| {
                    let base = offsets[pidx];
                    let mut acc = vec![0.0f64; n];
                    let mut total = 0.0;
                    for (off, &p) in probs.iter().enumerate() {
                        total += p;
                        let mut bits = base + off as u64;
                        while bits != 0 {
                            let b = bits.trailing_zeros() as usize;
                            acc[b] += p;
                            bits &= bits - 1;
                        }
                    }
                    (acc, total)
                });
        let mut acc = vec![0.0f64; n];
        let mut total = 0.0;
        for (local, t) in partials {
            total += t;
            for (a, l) in acc.iter_mut().zip(&local) {
                *a += l;
            }
        }
        if total > 0.0 {
            for a in &mut acc {
                *a /= total;
            }
        }
        acc
    }

    /// Pool-negative probability as a read-only aggregate stage.
    pub fn pool_negative_mass(&self, engine: &Engine, pool: State) -> f64 {
        let mask = pool.bits();
        let offsets = Arc::clone(&self.offsets);
        let partials: Vec<f64> = self
            .shards
            .aggregate_partitions(engine, move |pidx, probs| {
                let base = offsets[pidx];
                let mut local = 0.0;
                for (off, &p) in probs.iter().enumerate() {
                    if (base + off as u64) & mask == 0 {
                        local += p;
                    }
                }
                local
            });
        let mass: f64 = partials.iter().sum();
        if self.total > 0.0 {
            mass / self.total
        } else {
            0.0
        }
    }

    /// All-prefix pool-negative probabilities (the selection kernel) as a
    /// read-only aggregate stage: per-partition first-positive histograms,
    /// reduced and suffix-summed on the driver.
    pub fn prefix_negative_masses(&self, engine: &Engine, order: &[usize]) -> Vec<f64> {
        let n = self.n_subjects;
        let m = order.len();
        let pos_of = Arc::new(Self::positions_of(n, order));
        let offsets = Arc::clone(&self.offsets);
        let partials: Vec<Vec<f64>> =
            self.shards
                .aggregate_partitions(engine, move |pidx, probs| {
                    let base = offsets[pidx];
                    let mut hist = vec![0.0f64; m + 1];
                    for (off, &p) in probs.iter().enumerate() {
                        let mut first = m as u32;
                        let mut bits = base + off as u64;
                        while bits != 0 {
                            let b = bits.trailing_zeros() as usize;
                            let pos = pos_of[b];
                            if pos < first {
                                first = pos;
                                if first == 0 {
                                    break;
                                }
                            }
                            bits &= bits - 1;
                        }
                        hist[first as usize] += p;
                    }
                    hist
                });
        let mut hist = vec![0.0f64; m + 1];
        for local in partials {
            for (h, l) in hist.iter_mut().zip(&local) {
                *h += l;
            }
        }
        Self::suffix_sum(hist)
    }

    /// Branch-fused look-ahead histograms as a read-only aggregate stage —
    /// the engine-sharded half of the look-ahead selection fast path.
    ///
    /// Each task runs [`LookaheadKernel::histograms`] over its partition's
    /// contiguous state range (committed pools shipped as a broadcast
    /// variable, exactly like update likelihood tables) and sends one
    /// `(m + 1) × 2^j` histogram to the driver, where the partials are
    /// reduced elementwise in partition order. **Nothing posterior-sized is
    /// allocated and no shard is written** — the stage reads the same
    /// shared handles the updates mutate in place between stages. The job
    /// is tagged [`StageVariant::Lookahead`] with its branch count so
    /// `jobs()` distinguishes selection stages from update stages.
    pub fn lookahead_histograms(
        &self,
        engine: &Engine,
        kernel: &Arc<LookaheadKernel>,
        pools: Vec<BranchPool>,
    ) -> Vec<f64> {
        let nb = 1usize << pools.len();
        let rows = kernel.num_prefixes();
        let kernel = Arc::clone(kernel);
        let pools = engine.broadcast(pools);
        let offsets = Arc::clone(&self.offsets);
        let partials: Vec<Vec<f64>> = self
            .shards
            .try_aggregate_partitions(engine, "lookahead:select", move |pidx, probs| {
                kernel.histograms(probs, offsets[pidx], pools.value())
            })
            .unwrap_or_else(|e| panic!("dataset job failed: {e}"));
        engine
            .metrics()
            .annotate_last_job(StageVariant::Lookahead { branches: nb });
        let mut hist = vec![0.0f64; rows * nb];
        for local in partials {
            for (h, l) in hist.iter_mut().zip(&local) {
                *h += l;
            }
        }
        hist
    }

    /// Position of each subject within `order` (`u32::MAX` = not in order).
    fn positions_of(n: usize, order: &[usize]) -> Vec<u32> {
        let mut pos_of = vec![u32::MAX; n];
        for (k, &subj) in order.iter().enumerate() {
            assert!(subj < n, "subject {subj} out of range");
            assert!(pos_of[subj] == u32::MAX, "duplicate subject in order");
            pos_of[subj] = k as u32;
        }
        pos_of
    }

    /// Turn a first-positive histogram into all-prefix negative masses.
    fn suffix_sum(hist: Vec<f64>) -> Vec<f64> {
        let mut masses = vec![0.0f64; hist.len()];
        let mut running = 0.0;
        for k in (0..hist.len()).rev() {
            running += hist[k];
            masses[k] = running;
        }
        masses
    }
}

/// `probs[off] *= table[popcount((base + off) & mask)]` for every element,
/// returning the partial sum — the update's per-partition kernel, now
/// delegated to the runtime-dispatched SIMD block kernel
/// ([`sbgt_lattice::simd::mul_table_block`]). The blocked popcount and the
/// four accumulator lanes (lane of element `off` = `off % 4`) live there;
/// the reduction order is a pure function of the partition layout, so the
/// kernel stays bit-for-bit identical across dispatch levels.
fn mul_table_in_place(probs: &mut [f64], base: u64, mask: u64, table: &[f64]) -> f64 {
    simd::mul_table_block(probs, base, mask, table)
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
        let pool = State::from_subjects([1, 4, 6]);
        assert!(close(
            dense.pool_negative_mass(pool),
            sharded.pool_negative_mass(&e, pool)
        ));
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
        assert!(e.metrics().job_count() >= 2, "expected dataflow stages");
        assert_eq!(e.metrics().broadcast_count(), 1);
        // The update ran as an in-place stage over uniquely-owned shards;
        // the marginals stage is a read-only (immutable) aggregation.
        let jobs = e.metrics().jobs();
        assert_eq!(
            jobs[0].variant,
            sbgt_engine::StageVariant::InPlace { unique: 4, cow: 0 }
        );
        assert_eq!(jobs[1].variant, sbgt_engine::StageVariant::Immutable);
        assert_eq!(e.metrics().in_place_job_count(), 1);
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
            let nb = 1usize << pools.len();
            e.metrics().clear();
            let sharded_hist = sharded.lookahead_histograms(&e, &kernel, pools.clone());
            let dense_hist = kernel.histograms(dense.probs(), 0, &pools);
            assert_eq!(sharded_hist.len(), dense_hist.len());
            for (a, b) in sharded_hist.iter().zip(&dense_hist) {
                assert!(close(*a, *b));
            }
            // The stage is tagged with its branch count and is read-only.
            let jobs = e.metrics().jobs();
            let job = jobs.last().unwrap();
            assert_eq!(job.name, "lookahead:select");
            assert_eq!(
                job.variant,
                sbgt_engine::StageVariant::Lookahead { branches: nb }
            );
            assert!(!job.variant.is_in_place());
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
        let jobs = e.metrics().jobs();
        assert_eq!(
            jobs.last().unwrap().variant,
            sbgt_engine::StageVariant::InPlace { unique: 0, cow: 3 }
        );
        // The next update is unique again: the COW pass re-established
        // sole ownership of every shard handle.
        sharded
            .update(&e, &model, State::from_subjects([2]), false)
            .unwrap();
        let jobs = e.metrics().jobs();
        assert_eq!(
            jobs.last().unwrap().variant,
            sbgt_engine::StageVariant::InPlace { unique: 3, cow: 0 }
        );
    }
}
