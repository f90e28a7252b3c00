//! The exact backend: the `2^N` lattice posterior, dense until evidence
//! concentrates it and pruned-sparse after.
//!
//! [`ExactBackend`] runs one of two dense representations — the in-memory
//! [`DensePosterior`] ([`SbgtSession`]: its blocks inline or on rayon per
//! [`ExecMode`](crate::ExecMode), with the same bits) or the engine-sharded
//! [`ShardedPosterior`]
//! ([`ShardedSession`]: every traversal an engine stage, one fused stage per
//! observation) — and the pruned [`SparsePosterior`] both switch to once the
//! retained support falls below [`SbgtConfig::sparse_switch`]'s fraction of
//! `2^N`, or that a session opened by [`SbgtSession::new_sparse`] (HiBGT's
//! execution mode) runs from the start. A [`DenseRepr`] carries only what
//! the two dense representations do differently; the sparse arm —
//! marginals, halving and look-ahead selection, the update (on the driver,
//! or as a `fused-round:sparse` engine stage whenever the round context
//! carries an engine), the switch predicate and the snapshot section — is
//! written here once. The switch is one-way: support only shrinks under
//! further evidence, and the pruned-mass record would be lost.
//!
//! ## Deferred normalisation in memory
//!
//! A width-`w` in-memory stage costs `w + 2` lattice traversals: one per
//! observation, one to settle the stage, and selection's histogram. An
//! observation multiplies and sums the evidence in one traversal and
//! leaves its `1/z` *pending* in the [`DenseCache`]; the next observation
//! folds it into its own multiply as `(p·inv)·t[k]`, which rounds exactly
//! as a scale pass followed by the multiply. [`DenseRepr::finish_stage`],
//! the first step of every `end_stage`, applies the last pending scale and
//! computes the marginal masses of the result in the same traversal, and
//! classification reads them from the cache. The invariant: **no scale is
//! pending when any public call returns** — an observation that fails
//! settles or consumes it — so the posterior, snapshots, reports and
//! selection all see the normalised vector, with every bit of the
//! scale-after-every-update order. An empty cache (a fresh or restored
//! session, or after an impossible observation) computes the marginals on
//! read.
//!
//! ## Contraction
//!
//! A subject whose unnormalised marginal mass is exactly `0.0` is negative
//! in every state that has mass: a perfect assay's negative pool, or any
//! model with sensitivity 1, leaves its members there. A zero mass stays
//! zero under every later multiply, so half of the lattice is zeros for
//! each such subject for the rest of the session. At every `end_stage`,
//! right after `finish_stage` settles, the dense arm sums every such
//! subject out ([`DenseRepr::contract`]: [`DensePosterior::project`] in
//! memory, [`ShardedPosterior::project`] sharded) and later traversals
//! read `2^m` states for the `m` subjects still open. The test is the sum
//! itself, never a threshold on the normalised marginal, and it runs only
//! once all of a stage's observations have landed. Certain positives are
//! not contracted.
//!
//! The [`SubjectMap`] lists the cohort subjects the lattice still stores,
//! and [`ExactBackend`] is the one place that converts: pools going in
//! drop their contracted members ([`pext`]; those members are negative in
//! every state with mass, so the pool's likelihood table keeps its full
//! size and no product changes), selections coming out are deposited back
//! ([`pdep`], monotone, so the bitmask tie-break of [`Selection`] is
//! unchanged), an `order` is mapped to stored positions, and marginals
//! report a contracted subject as exactly `0.0`. The history, the plan
//! keys and the service keep cohort ids. While nothing is contracted every
//! conversion is skipped and nothing is allocated.
//!
//! A surviving mass keeps its bits (each projected target is `p + 0.0`).
//! The in-memory cached marginal masses survive a contraction of a
//! one-block lattice, whose sums have the same non-zero terms in the same
//! order; a larger lattice recomputes them on read, as a restored session
//! does. The sharded cache keeps the surviving marginals and drops each
//! contracted `order[j]` of its selection bank together with
//! `masses[j + 1]`, which equals `masses[j]` when `order[j]` has no mass.
//! The sparse arm never contracts: the switch deposits its entries back to
//! cohort numbering, and its limit stays a fraction of the cohort's `2^N`.
//!
//! External views keep cohort numbering: [`Session::posterior`], the
//! report and snapshots see the expansion, with the zeros written back, so
//! the SBGTSNAP format does not change. A restore contracts every
//! massless subject once, as the last stage end did; a snapshot taken
//! before any stage ended restores uncontracted, as it was taken.
//!
//! ## Sharded selection pipelining
//!
//! The fused round computes prefix masses under a candidate ordering that
//! must be supplied *before* the update runs, so the sharded loop
//! pipelines: the ordering passed into round `t` is derived from round
//! `t-1`'s (fresh) marginals, and the masses that round returns drive round
//! `t+1`'s pool selection. Classification always uses the current
//! marginals — only the candidate *ordering* for selection is one round
//! stale, which perturbs near-tied pool choices but never the posterior
//! math. [`ShardedSession::select_next`] remains the exact, non-pipelined
//! path (fresh ordering, one extra read-only stage).

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

use sbgt_bayes::{
    analyze_on, update_sparse, update_sparse_with_table, BayesError, Observation, PosteriorReport,
    Prior,
};
use sbgt_engine::Engine;
use sbgt_lattice::blocks::BLOCK_LEN;
use sbgt_lattice::hybrid::retained_support;
use sbgt_lattice::{
    num_states, pdep, pext, DensePosterior, LookaheadKernel, SparsePosterior, State,
};
use sbgt_response::BinaryOutcomeModel;
use sbgt_select::{
    drive_lookahead, select_halving_from_masses, select_halving_prefix_on,
    select_halving_prefix_sparse, select_stage_lookahead_on, select_stage_lookahead_sparse,
    LookaheadConfig, SelectError, Selection,
};

use crate::config::{ConfigError, SbgtConfig};
use crate::parallel::{massless, ShardedPosterior};
use crate::report::SessionOutcome;
use crate::session::{eligible_order, Backend, RoundCtx, RoundStep, Session};
use crate::snapshot::{SessionSnapshot, SnapshotError, SparseSnapshot};

/// The cohort subjects a dense lattice stores (module docs,
/// **Contraction**): stored position `j` is the `j`-th set bit of `live`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubjectMap {
    live: u64,
    n: usize,
}

impl SubjectMap {
    /// Every subject of an `n`-subject cohort stored.
    fn full(n: usize) -> Self {
        SubjectMap {
            live: State::full(n).bits(),
            n,
        }
    }

    fn is_full(self) -> bool {
        self.live == State::full(self.n).bits()
    }

    /// A cohort pool in stored positions, without its contracted members.
    fn pool_in(self, pool: State) -> State {
        if self.is_full() {
            return pool;
        }
        State(pext(pool.bits(), self.live))
    }

    /// A selection over stored positions, in cohort ids.
    fn selection_out(self, s: Selection) -> Selection {
        if self.is_full() {
            return s;
        }
        Selection {
            pool: State(pdep(s.pool.bits(), self.live)),
            ..s
        }
    }

    /// Cohort subjects as stored positions.
    ///
    /// # Panics
    /// Panics on a contracted subject. Its marginal is `0.0`, which every
    /// classification rule calls negative, so no candidate order names one.
    fn positions(self, order: &[usize]) -> Cow<'_, [usize]> {
        if self.is_full() {
            return Cow::Borrowed(order);
        }
        let position = |subject: usize| {
            assert!(
                self.live >> subject & 1 == 1,
                "subject {subject} is contracted"
            );
            (self.live & ((1 << subject) - 1)).count_ones() as usize
        };
        Cow::Owned(order.iter().map(|&subject| position(subject)).collect())
    }

    /// Stored positions as cohort subjects.
    fn subjects(self, positions: &[usize]) -> Vec<usize> {
        positions
            .iter()
            .map(|&j| pdep(1 << j, self.live).trailing_zeros() as usize)
            .collect()
    }

    /// Stored marginals in cohort numbering, `0.0` for a contracted subject.
    fn marginals_out(self, stored: Vec<f64>) -> Vec<f64> {
        if self.is_full() {
            return stored;
        }
        let mut out = vec![0.0; self.n];
        for (subject, m) in State(self.live).subjects().zip(stored) {
            out[subject] = m;
        }
        out
    }

    /// A sparse posterior over stored positions, in cohort numbering.
    fn sparse_out(self, sparse: SparsePosterior) -> SparsePosterior {
        if self.is_full() {
            return sparse;
        }
        let entries = sparse
            .entries()
            .iter()
            .map(|&(s, p)| (State(pdep(s.bits(), self.live)), p))
            .collect();
        SparsePosterior::from_parts(self.n, entries, sparse.pruned_mass())
    }
}

/// The entries of `values` at the set bits of `keep`, in order.
fn kept(values: Vec<f64>, keep: u64) -> Vec<f64> {
    values
        .into_iter()
        .enumerate()
        .filter(|(j, _)| keep >> j & 1 == 1)
        .map(|(_, v)| v)
        .collect()
}

/// What differs between the two dense representations under
/// [`ExactBackend`]. Everything here is in stored positions: the backend
/// converts at the boundary. The trait lives in a private module, so
/// nothing outside this crate can name or implement it.
pub trait DenseRepr: Sized {
    /// What a round borrows: `Option<&Engine>` in memory, `&Engine` sharded.
    type Ctx<'a>: RoundCtx<'a>;
    /// Read-outs kept beside the posterior on both sides of the switch: the
    /// in-memory marginal masses and pending scale; the sharded marginals
    /// cache, selection bank and massless subjects.
    type Cache;

    /// Current per-subject marginals.
    fn marginals(&self, cache: &Self::Cache, config: &SbgtConfig) -> Vec<f64>;

    /// Exact prefix halving over `order`.
    fn select_next(
        &self,
        ctx: Self::Ctx<'_>,
        config: &SbgtConfig,
        order: &[usize],
    ) -> Option<Selection>;

    /// Branch-fused look-ahead selection of one stage over `order`.
    fn select_stage<M: BinaryOutcomeModel>(
        &self,
        ctx: Self::Ctx<'_>,
        config: &SbgtConfig,
        model: &M,
        cfg: &LookaheadConfig,
        order: &[usize],
    ) -> Result<Vec<Selection>, SelectError>;

    /// Apply one observation of `pool`, whose outcome has likelihood
    /// `table[k]` with `k` positives in the pool; returns its evidence.
    fn observe(
        &mut self,
        cache: &mut Self::Cache,
        ctx: Self::Ctx<'_>,
        config: &SbgtConfig,
        pool: State,
        table: Vec<f64>,
    ) -> Result<f64, BayesError>;

    /// Settle what the stage's observations deferred and refresh the
    /// cache; runs first in every `end_stage`.
    fn finish_stage(&mut self, _cache: &mut Self::Cache, _config: &SbgtConfig) {}

    /// The stored subjects whose unnormalised marginal mass is exactly
    /// `0.0`, as a bitmask.
    fn massless(&self, cache: &Self::Cache, config: &SbgtConfig) -> u64;

    /// Sum out every stored subject outside `keep`, all of them massless,
    /// and renumber the cache to match.
    fn contract(&mut self, cache: &mut Self::Cache, keep: u64);

    /// The posterior in cohort numbering: the inverse of the contractions
    /// `map` records.
    fn expand(&self, map: SubjectMap) -> Self;

    /// States whose mass exceeds the relative prune cut `epsilon`: the
    /// support the posterior would retain if it switched now.
    fn retained_support(&self, ctx: Self::Ctx<'_>, config: &SbgtConfig, epsilon: f64) -> usize;

    /// The pruned, normalized sparse equivalent — the switch itself. What
    /// of the cache the sparse arm reads leaves in cohort numbering.
    fn to_sparse(
        &self,
        cache: &mut Self::Cache,
        ctx: Self::Ctx<'_>,
        epsilon: f64,
        map: SubjectMap,
    ) -> SparsePosterior;

    /// Write the cache in cohort numbering and, before the switch, the
    /// dense posterior `dense`, already expanded.
    fn snapshot_into(
        dense: Option<&Self>,
        cache: &Self::Cache,
        map: SubjectMap,
        snapshot: &mut SessionSnapshot,
    );

    /// Rebuild the cache from a snapshot.
    fn restore_cache(snapshot: &SessionSnapshot) -> Result<Self::Cache, SnapshotError>;

    /// Rebuild the posterior from a snapshot's dense section.
    fn restore(snapshot: &SessionSnapshot) -> Result<Self, SnapshotError>;

    /// A width-1 selection the last update banked for this round.
    fn banked(_cache: &mut Self::Cache, _config: &SbgtConfig) -> Option<Selection> {
        None
    }

    /// Marginals once the switch has happened.
    fn sparse_marginals(_cache: &Self::Cache, sparse: &SparsePosterior) -> Vec<f64> {
        sparse.marginals()
    }

    /// Runs after every sparse update lands.
    fn sparse_updated(_cache: &mut Self::Cache, _sparse: &SparsePosterior) {}
}

/// The posterior in whichever arm is live. The sparse arm fixes its prune
/// threshold when it is entered: from the switch policy at the switch, from
/// the caller of [`SbgtSession::new_sparse`] or
/// [`SbgtSession::restore_sparse`], or from the configured policy when a
/// post-switch snapshot is restored.
enum Arm<D> {
    Dense(D),
    Sparse {
        posterior: SparsePosterior,
        epsilon: f64,
    },
}

/// The exact lattice posterior under the round driver: a dense
/// representation `D` until the switch and the pruned sparse arm after,
/// plus the assay model and the observation history the plan cache is
/// keyed on.
pub struct ExactBackend<D: DenseRepr, M> {
    posterior: Arm<D>,
    /// What `D` keeps beside its posterior, on both sides of the switch.
    cache: D::Cache,
    model: M,
    history: Vec<(State, bool)>,
    /// The cohort subjects the dense arm still stores (module docs,
    /// **Contraction**); full in the sparse arm.
    map: SubjectMap,
    /// The dense arm in cohort numbering, expanded on the first read while
    /// anything is contracted and dropped when the posterior next changes.
    expanded: OnceLock<D>,
}

/// A live Bayesian group-testing session over one cohort, held in memory,
/// exposing the paper's three operation classes (`observe` = lattice
/// manipulation, `select_next`/`select_stage` = test selection, `report` =
/// statistical analysis).
pub type SbgtSession<M> = Session<ExactBackend<DensePosterior, M>>;

/// A live group-testing session whose posterior lives as engine shards.
pub type ShardedSession<M> = Session<ExactBackend<ShardedPosterior, M>>;

fn check_epsilon(prune_epsilon: f64) -> Result<(), String> {
    if (0.0..1.0).contains(&prune_epsilon) {
        Ok(())
    } else {
        Err(format!("prune epsilon {prune_epsilon} outside [0, 1)"))
    }
}

/// One sparse update and re-prune: on the driver, or — when `engine` is
/// given — as a single-task engine stage named `fused-round:sparse`. The
/// stage updates a clone of `posterior`, so an injected fault can kill it,
/// and the result is committed only on stage success.
///
/// # Panics
/// Panics when the stage fails — the same contract as the sharded fused
/// rounds, which a supervising service converts into a snapshot rollback.
fn sparse_round_on<M: BinaryOutcomeModel>(
    engine: Option<&Engine>,
    model: &M,
    posterior: &mut SparsePosterior,
    pool: State,
    outcome: bool,
    epsilon: f64,
) -> Result<f64, BayesError> {
    let Some(engine) = engine else {
        return update_sparse(posterior, model, &Observation::new(pool, outcome), epsilon);
    };
    if pool.rank() == 0 {
        return Err(BayesError::EmptyPool);
    }
    let table = model.likelihood_table(outcome, pool.rank());
    let mut p = posterior.clone();
    let task = move || update_sparse_with_table(&mut p, pool, &table, epsilon).map(|z| (p, z));
    let results = engine
        .run_stage("fused-round:sparse", vec![task])
        .unwrap_or_else(|e| panic!("sparse round stage failed: {e}"));
    let (p, z) = results.into_iter().next().expect("one sparse task")?;
    *posterior = p;
    Ok(z)
}

impl<D: DenseRepr, M: BinaryOutcomeModel> ExactBackend<D, M> {
    fn new(posterior: Arm<D>, cache: D::Cache, model: M, n: usize) -> Self {
        ExactBackend {
            posterior,
            cache,
            model,
            history: Vec::new(),
            map: SubjectMap::full(n),
            expanded: OnceLock::new(),
        }
    }

    /// Rebuild from a snapshot, before or after the switch; a post-switch
    /// snapshot resumes the sparse arm at `epsilon`. A dense snapshot holds
    /// the expansion: once a stage has ended, the last `end_stage`
    /// contracted every massless subject, so the restore does too.
    fn restore(
        snapshot: &SessionSnapshot,
        model: M,
        epsilon: f64,
        config: &SbgtConfig,
    ) -> Result<Self, SnapshotError> {
        if snapshot.approx.is_some() {
            return Err(SnapshotError::Corrupt(
                "approx snapshot cannot restore an exact session".into(),
            ));
        }
        let cache = D::restore_cache(snapshot)?;
        let posterior = match &snapshot.sparse {
            Some(sp) => Arm::Sparse {
                posterior: sp.posterior(snapshot.n_subjects),
                epsilon,
            },
            None => Arm::Dense(D::restore(snapshot)?),
        };
        let mut backend = ExactBackend::new(posterior, cache, model, snapshot.n_subjects);
        backend.history = snapshot.history.clone();
        if snapshot.stages > 0 {
            backend.contract(config);
        }
        Ok(backend)
    }

    /// Sum every massless subject out of the dense arm and narrow the map
    /// (module docs, **Contraction**).
    fn contract(&mut self, config: &SbgtConfig) {
        let Arm::Dense(dense) = &mut self.posterior else {
            return;
        };
        let dead = dense.massless(&self.cache, config);
        if dead == 0 {
            return;
        }
        let stored = self.map.live.count_ones() as usize;
        dense.contract(&mut self.cache, State::full(stored).bits() & !dead);
        self.map.live &= !pdep(dead, self.map.live);
        self.expanded = OnceLock::new();
    }

    /// The dense posterior in cohort numbering.
    ///
    /// # Panics
    /// Panics once the posterior has switched to sparse.
    fn cohort_posterior(&self) -> &D {
        match &self.posterior {
            Arm::Dense(d) if self.map.is_full() => d,
            Arm::Dense(d) => self.expanded.get_or_init(|| d.expand(self.map)),
            Arm::Sparse { .. } => {
                panic!("posterior has switched to sparse; use sparse_posterior()")
            }
        }
    }

    fn select_next(
        &self,
        ctx: D::Ctx<'_>,
        config: &SbgtConfig,
        order: &[usize],
    ) -> Option<Selection> {
        match &self.posterior {
            Arm::Dense(d) => d
                .select_next(ctx, config, &self.map.positions(order))
                .map(|s| self.map.selection_out(s)),
            Arm::Sparse { posterior, .. } => {
                select_halving_prefix_sparse(posterior, order, config.max_pool_size)
            }
        }
    }

    fn select_stage(
        &self,
        ctx: D::Ctx<'_>,
        config: &SbgtConfig,
        cfg: &LookaheadConfig,
        order: &[usize],
    ) -> Result<Vec<Selection>, SelectError> {
        match &self.posterior {
            Arm::Dense(d) => {
                let order = self.map.positions(order);
                let stage = d.select_stage(ctx, config, &self.model, cfg, &order)?;
                Ok(stage
                    .into_iter()
                    .map(|s| self.map.selection_out(s))
                    .collect())
            }
            Arm::Sparse { posterior, .. } => {
                select_stage_lookahead_sparse(posterior, &self.model, order, cfg)
            }
        }
    }
}

impl<D: DenseRepr, M: BinaryOutcomeModel> Backend for ExactBackend<D, M> {
    type Pool = State;
    type Ctx<'a> = D::Ctx<'a>;

    fn n_subjects(&self) -> usize {
        self.map.n
    }

    fn tests(&self) -> usize {
        self.history.len()
    }

    fn marginals(&self, config: &SbgtConfig) -> Vec<f64> {
        match &self.posterior {
            Arm::Dense(d) => self.map.marginals_out(d.marginals(&self.cache, config)),
            Arm::Sparse { posterior, .. } => D::sparse_marginals(&self.cache, posterior),
        }
    }

    /// A width-1 round spends the masses the last (sharded) update banked,
    /// if any, and otherwise runs exact halving. Plan hits never reach this
    /// method and leave the bank alone — every update re-banks it, so a
    /// later live miss sees the same masses either way.
    fn select(
        &mut self,
        ctx: D::Ctx<'_>,
        config: &SbgtConfig,
        _marginals: &[f64],
        order: &[usize],
    ) -> Vec<Selection> {
        if config.stage_width > 1 {
            return self
                .select_stage(ctx, config, &config.lookahead(), order)
                .expect("stage width validated by SbgtConfig");
        }
        match D::banked(&mut self.cache, config) {
            Some(s) => vec![self.map.selection_out(s)],
            None => self.select_next(ctx, config, order).into_iter().collect(),
        }
    }

    /// An empty pool settles a pending scale and is rejected; any other
    /// pool keeps the likelihood table of its full size.
    fn observe(
        &mut self,
        ctx: D::Ctx<'_>,
        config: &SbgtConfig,
        pool: &State,
        outcome: bool,
    ) -> Result<f64, BayesError> {
        let z = match &mut self.posterior {
            Arm::Dense(d) => {
                if pool.rank() == 0 {
                    d.finish_stage(&mut self.cache, config);
                    return Err(BayesError::EmptyPool);
                }
                self.expanded = OnceLock::new();
                let table = self.model.likelihood_table(outcome, pool.rank());
                d.observe(&mut self.cache, ctx, config, self.map.pool_in(*pool), table)?
            }
            Arm::Sparse { posterior, epsilon } => {
                let engine = ctx.engine();
                let z = sparse_round_on(engine, &self.model, posterior, *pool, outcome, *epsilon)?;
                D::sparse_updated(&mut self.cache, posterior);
                z
            }
        };
        self.history.push((*pool, outcome));
        Ok(z)
    }

    /// [`DenseRepr::finish_stage`], the contraction, then the dense→sparse
    /// switch, checked once per stage after its updates land: taken when
    /// configured and the support retained at the policy's prune cut is at
    /// most its fraction of the cohort's `2^N`.
    fn end_stage(&mut self, ctx: D::Ctx<'_>, config: &SbgtConfig) {
        if let Arm::Dense(dense) = &mut self.posterior {
            dense.finish_stage(&mut self.cache, config);
        }
        self.contract(config);
        let (Some(switch), Arm::Dense(dense)) = (config.sparse_switch, &self.posterior) else {
            return;
        };
        let support = dense.retained_support(ctx, config, switch.prune_epsilon);
        let limit = switch.max_support_fraction * num_states(self.map.n) as f64;
        if support as f64 > limit {
            return;
        }
        let posterior = dense.to_sparse(&mut self.cache, ctx, switch.prune_epsilon, self.map);
        self.posterior = Arm::Sparse {
            posterior: self.map.sparse_out(posterior),
            epsilon: switch.prune_epsilon,
        };
        self.map = SubjectMap::full(self.map.n);
        self.expanded = OnceLock::new();
    }

    fn plan_history(&self) -> Option<&[(State, bool)]> {
        Some(&self.history)
    }

    /// After the switch the snapshot stores the retained entries and the
    /// pruned mass instead of a dense posterior.
    fn snapshot_into(&self, snapshot: &mut SessionSnapshot) {
        snapshot.history = self.history.clone();
        let dense = match &self.posterior {
            Arm::Dense(_) => Some(self.cohort_posterior()),
            Arm::Sparse { posterior, .. } => {
                snapshot.total = posterior.total();
                snapshot.sparse = Some(SparseSnapshot::of(posterior));
                None
            }
        };
        D::snapshot_into(dense, &self.cache, self.map, snapshot);
    }
}

/// The in-memory read-outs (see the module docs): the marginal masses and
/// total of the settled posterior, and the `1/z` the last observation left
/// pending.
#[derive(Default)]
pub struct DenseCache {
    sums: Option<(Vec<f64>, f64)>,
    pending_scale: Option<f64>,
}

impl DenseRepr for DensePosterior {
    type Ctx<'a> = Option<&'a Engine>;
    type Cache = DenseCache;

    fn marginals(&self, cache: &DenseCache, config: &SbgtConfig) -> Vec<f64> {
        match &cache.sums {
            Some((sums, total)) => {
                let mut marginals = sums.clone();
                sbgt_lattice::dense::normalize_marginals(&mut marginals, *total);
                marginals
            }
            None => self.marginals_on(config.exec),
        }
    }

    fn select_next(
        &self,
        _: Option<&Engine>,
        config: &SbgtConfig,
        order: &[usize],
    ) -> Option<Selection> {
        select_halving_prefix_on(self, order, config.max_pool_size, config.exec)
    }

    fn select_stage<M: BinaryOutcomeModel>(
        &self,
        _: Option<&Engine>,
        config: &SbgtConfig,
        model: &M,
        cfg: &LookaheadConfig,
        order: &[usize],
    ) -> Result<Vec<Selection>, SelectError> {
        select_stage_lookahead_on(self, model, order, cfg, config.exec)
    }

    /// One traversal: the multiply, with the pending scale folded in, and
    /// the evidence sum; this observation's `1/z` is left pending.
    fn observe(
        &mut self,
        cache: &mut DenseCache,
        _: Option<&Engine>,
        config: &SbgtConfig,
        pool: State,
        table: Vec<f64>,
    ) -> Result<f64, BayesError> {
        cache.sums = None;
        let pending = cache.pending_scale.take().unwrap_or(1.0);
        let z = self.scale_mul_likelihood_fused(pending, pool, &table, config.exec);
        if !(z.is_finite() && z > 0.0) {
            return Err(BayesError::ImpossibleObservation);
        }
        cache.pending_scale = Some(1.0 / z);
        Ok(z)
    }

    /// Apply the pending scale and compute the marginal masses of the
    /// result, in one traversal.
    fn finish_stage(&mut self, cache: &mut DenseCache, config: &SbgtConfig) {
        if let Some(inv) = cache.pending_scale.take() {
            cache.sums = Some(self.scale_marginal_masses(inv, config.exec));
        }
    }

    fn massless(&self, cache: &DenseCache, config: &SbgtConfig) -> u64 {
        match &cache.sums {
            Some((sums, _)) => massless(sums),
            None => massless(&self.marginal_masses_on(config.exec).0),
        }
    }

    /// The cached sums survive only a one-block lattice's contraction:
    /// they add the non-zero terms the contracted lattice's pass would,
    /// in the same order. A larger lattice's block fold does not survive,
    /// so its marginals are recomputed on read, as a restore computes them.
    fn contract(&mut self, cache: &mut DenseCache, keep: u64) {
        let one_block = self.len() <= BLOCK_LEN;
        *self = self.project(keep).into_owned();
        cache.sums = match cache.sums.take() {
            Some((sums, total)) if one_block => Some((kept(sums, keep), total)),
            _ => None,
        };
    }

    fn expand(&self, map: SubjectMap) -> Self {
        DensePosterior::expand(self, map.live, map.n)
    }

    fn retained_support(&self, _: Option<&Engine>, config: &SbgtConfig, epsilon: f64) -> usize {
        retained_support(self, epsilon, config.exec)
    }

    fn to_sparse(
        &self,
        _: &mut DenseCache,
        _: Option<&Engine>,
        epsilon: f64,
        _: SubjectMap,
    ) -> SparsePosterior {
        SparsePosterior::from_dense(self, epsilon)
    }

    /// One shard of exact (normalized) values.
    fn snapshot_into(
        dense: Option<&Self>,
        _: &DenseCache,
        _: SubjectMap,
        snapshot: &mut SessionSnapshot,
    ) {
        if let Some(d) = dense {
            snapshot.shards = vec![d.probs().to_vec()];
        }
    }

    fn restore_cache(_: &SessionSnapshot) -> Result<DenseCache, SnapshotError> {
        Ok(DenseCache::default())
    }

    fn restore(snapshot: &SessionSnapshot) -> Result<Self, SnapshotError> {
        let probs = snapshot.shards.iter().flatten().copied().collect();
        Ok(DensePosterior::from_probs(snapshot.n_subjects, probs))
    }
}

/// The sharded read-outs: the marginals of the current posterior, kept
/// fresh by every round so reading them costs no stage, the
/// `(order, masses)` bank of all-prefix negative masses the last fused
/// round computed under `order`, and the subjects that round left
/// massless (`None` when no round has run since a restore or a
/// contraction). The marginals carry across the switch: the first round
/// after it classifies on the cached dense marginals.
pub struct ShardedCache {
    marginals: Vec<f64>,
    pending_selection: Option<(Vec<usize>, Vec<f64>)>,
    massless: Option<u64>,
}

impl DenseRepr for ShardedPosterior {
    type Ctx<'a> = &'a Engine;
    type Cache = ShardedCache;

    fn marginals(&self, cache: &ShardedCache, _: &SbgtConfig) -> Vec<f64> {
        cache.marginals.clone()
    }

    /// One read-only all-prefix mass stage.
    fn select_next(
        &self,
        engine: &Engine,
        config: &SbgtConfig,
        order: &[usize],
    ) -> Option<Selection> {
        if order.is_empty() {
            return None;
        }
        let masses = self.prefix_negative_masses(engine, order);
        select_halving_from_masses(order, &masses, config.max_pool_size)
    }

    /// Each greedy step is one read-only `lookahead:select` aggregate stage
    /// accumulating every outcome branch's prefix-mass histogram in a
    /// single traversal of the shards — no branch posterior is ever
    /// materialized.
    fn select_stage<M: BinaryOutcomeModel>(
        &self,
        engine: &Engine,
        _: &SbgtConfig,
        model: &M,
        cfg: &LookaheadConfig,
        order: &[usize],
    ) -> Result<Vec<Selection>, SelectError> {
        cfg.validate()?;
        if order.is_empty() {
            return Ok(Vec::new());
        }
        let kernel = Arc::new(LookaheadKernel::new(self.n_subjects(), order));
        drive_lookahead(model, order, cfg, |pools| {
            self.lookahead_histograms(engine, &kernel, pools.to_vec())
        })
    }

    /// One fused in-place stage: applies the update, refreshes the
    /// marginals, and banks the prefix masses for the next round.
    fn observe(
        &mut self,
        cache: &mut ShardedCache,
        engine: &Engine,
        config: &SbgtConfig,
        pool: State,
        table: Vec<f64>,
    ) -> Result<f64, BayesError> {
        let order = eligible_order(&cache.marginals, config.rule);
        let round = self.fused_round_with(engine, table, pool, &order)?;
        cache.marginals = round.marginals;
        cache.pending_selection = Some((order, round.prefix_negative_masses));
        cache.massless = Some(round.massless);
        Ok(round.evidence)
    }

    /// The last fused round's mask; after a restore, one pass over the
    /// shards on the driver.
    fn massless(&self, cache: &ShardedCache, _: &SbgtConfig) -> u64 {
        cache
            .massless
            .unwrap_or_else(|| ShardedPosterior::massless(self))
    }

    fn contract(&mut self, cache: &mut ShardedCache, keep: u64) {
        *self = self.project(keep);
        cache.marginals = kept(std::mem::take(&mut cache.marginals), keep);
        if let Some((order, masses)) = &mut cache.pending_selection {
            let (mut live_order, mut live_masses) = (Vec::new(), vec![masses[0]]);
            for (&j, &mass) in order.iter().zip(&masses[1..]) {
                if keep >> j & 1 == 1 {
                    live_order.push((keep & ((1 << j) - 1)).count_ones() as usize);
                    live_masses.push(mass);
                }
            }
            *order = live_order;
            *masses = live_masses;
        }
        cache.massless = None;
    }

    fn expand(&self, map: SubjectMap) -> Self {
        ShardedPosterior::expand(self, map.live, map.n)
    }

    /// One read-only `sparse:support` counting stage.
    fn retained_support(&self, engine: &Engine, _: &SbgtConfig, epsilon: f64) -> usize {
        ShardedPosterior::retained_support(self, engine, epsilon)
    }

    /// One `sparse:collect` stage that materializes the pruned posterior on
    /// the driver.
    fn to_sparse(
        &self,
        cache: &mut ShardedCache,
        engine: &Engine,
        epsilon: f64,
        map: SubjectMap,
    ) -> SparsePosterior {
        let sparse = ShardedPosterior::to_sparse(self, engine, epsilon);
        // The banked selection masses are unnormalized dense-total units;
        // drop them so the next round selects from the sparse posterior.
        cache.pending_selection = None;
        cache.marginals = map.marginals_out(std::mem::take(&mut cache.marginals));
        sparse
    }

    /// The read-outs, and before the switch the shards (exact bits,
    /// partition boundaries preserved) and their normalization constant.
    /// Shard storage is captured by value so the snapshot stays valid
    /// across later in-place rounds.
    fn snapshot_into(
        dense: Option<&Self>,
        cache: &ShardedCache,
        map: SubjectMap,
        snapshot: &mut SessionSnapshot,
    ) {
        snapshot.marginals = map.marginals_out(cache.marginals.clone());
        snapshot.pending_selection = cache
            .pending_selection
            .as_ref()
            .map(|(order, masses)| (map.subjects(order), masses.clone()));
        if let Some(p) = dense {
            snapshot.shards = p.shard_values();
            snapshot.total = p.total();
        }
    }

    fn restore_cache(snapshot: &SessionSnapshot) -> Result<ShardedCache, SnapshotError> {
        if snapshot.marginals.len() != snapshot.n_subjects {
            return Err(SnapshotError::Corrupt(format!(
                "sharded restore needs {} marginals, snapshot holds {}",
                snapshot.n_subjects,
                snapshot.marginals.len()
            )));
        }
        Ok(ShardedCache {
            marginals: snapshot.marginals.clone(),
            pending_selection: snapshot.pending_selection.clone(),
            massless: None,
        })
    }

    fn restore(snapshot: &SessionSnapshot) -> Result<Self, SnapshotError> {
        let shards = snapshot.shards.clone();
        ShardedPosterior::from_shards(snapshot.n_subjects, shards, snapshot.total)
    }

    fn banked(cache: &mut ShardedCache, config: &SbgtConfig) -> Option<Selection> {
        let (order, masses) = cache.pending_selection.take()?;
        select_halving_from_masses(&order, &masses, config.max_pool_size)
    }

    fn sparse_marginals(cache: &ShardedCache, _: &SparsePosterior) -> Vec<f64> {
        cache.marginals.clone()
    }

    fn sparse_updated(cache: &mut ShardedCache, sparse: &SparsePosterior) {
        cache.marginals = sparse.marginals();
        cache.pending_selection = None;
    }
}

impl<D: DenseRepr, M: BinaryOutcomeModel> Session<ExactBackend<D, M>> {
    /// Rehydrate a session from a snapshot taken by [`Session::snapshot`],
    /// before or after the switch, without touching an engine. Posterior
    /// values — and the sharded marginals and selection bank — are restored
    /// exactly, so the session continues bit-for-bit.
    pub fn restore(
        snapshot: &SessionSnapshot,
        model: M,
        config: SbgtConfig,
    ) -> Result<Self, SnapshotError> {
        let epsilon = config.sparse_switch.map_or(0.0, |s| s.prune_epsilon);
        Session::resume(snapshot, config, |snapshot| {
            ExactBackend::restore(snapshot, model, epsilon, &config)
        })
    }

    /// The dense posterior over the whole cohort (kept normalized in
    /// memory; unnormalized shards plus their total when sharded). While
    /// subjects are contracted it is the expansion, built on the first call
    /// and kept until the posterior next changes.
    ///
    /// # Panics
    /// Panics once the session has taken the adaptive dense→sparse switch
    /// (or was opened sparse); check [`Self::is_sparse`] or use
    /// [`Self::sparse_posterior`] then.
    pub fn posterior(&self) -> &D {
        self.backend().cohort_posterior()
    }

    /// Whether the posterior is in the pruned sparse representation.
    pub fn is_sparse(&self) -> bool {
        self.sparse_posterior().is_some()
    }

    /// The sparse posterior, once the session has switched.
    pub fn sparse_posterior(&self) -> Option<&SparsePosterior> {
        match &self.backend().posterior {
            Arm::Sparse { posterior, .. } => Some(posterior),
            Arm::Dense(_) => None,
        }
    }

    /// The cohort subjects the dense lattice still stores, as a bitmask
    /// (module docs, **Contraction**): every subject until a massless one
    /// is summed out, and every subject again after the sparse switch.
    pub fn stored_subjects(&self) -> State {
        State(self.backend().map.live)
    }

    /// Every `(pool, outcome)` observed so far, in order.
    pub fn history(&self) -> &[(State, bool)] {
        &self.backend().history
    }
}

impl<M: BinaryOutcomeModel> ExactBackend<DensePosterior, M> {
    /// The dense posterior over the cohort, materialized from the sparse
    /// entries once the session has switched — for `report`, which has no
    /// sparse counterpart.
    fn dense_view(&self) -> Cow<'_, DensePosterior> {
        match &self.posterior {
            Arm::Dense(_) => Cow::Borrowed(self.cohort_posterior()),
            Arm::Sparse { posterior, .. } => Cow::Owned(posterior.to_dense()),
        }
    }
}

impl<M: BinaryOutcomeModel> Session<ExactBackend<DensePosterior, M>> {
    /// Open a session from a prior and an assay model.
    pub fn new(prior: Prior, model: M, config: SbgtConfig) -> Self {
        let n = prior.n_subjects();
        Session::open(
            ExactBackend::new(
                Arm::Dense(prior.to_dense()),
                DenseCache::default(),
                model,
                n,
            ),
            config,
        )
    }

    /// Open a session in the pruned sparse representation from the start.
    /// `prune_epsilon` is the per-update relative mass threshold below
    /// which states are dropped (`1e-9` is a good default per E10; `0.0`
    /// keeps everything). An out-of-range epsilon is a typed
    /// [`ConfigError::InvalidArgument`], so a service assembling sessions
    /// from untrusted configuration can shed the cohort instead of
    /// crashing.
    pub fn new_sparse(
        prior: Prior,
        model: M,
        config: SbgtConfig,
        prune_epsilon: f64,
    ) -> Result<Self, ConfigError> {
        check_epsilon(prune_epsilon).map_err(ConfigError::InvalidArgument)?;
        let n = prior.n_subjects();
        let posterior = Arm::Sparse {
            posterior: prior.to_sparse(prune_epsilon),
            epsilon: prune_epsilon,
        };
        Ok(Session::open(
            ExactBackend::new(posterior, DenseCache::default(), model, n),
            config,
        ))
    }

    /// Rehydrate a session opened by [`Self::new_sparse`]. The prune
    /// epsilon, like the model and config, is the cohort's static spec;
    /// a snapshot without a sparse section or an epsilon outside `[0, 1)`
    /// is a typed error.
    pub fn restore_sparse(
        snapshot: &SessionSnapshot,
        model: M,
        config: SbgtConfig,
        prune_epsilon: f64,
    ) -> Result<Self, SnapshotError> {
        Session::resume(snapshot, config, |snapshot| {
            if snapshot.sparse.is_none() {
                return Err(SnapshotError::Corrupt(
                    "sparse restore needs a sparse section".into(),
                ));
            }
            check_epsilon(prune_epsilon).map_err(SnapshotError::Corrupt)?;
            ExactBackend::restore(snapshot, model, prune_epsilon, &config)
        })
    }

    /// Ingest one observed pooled test (one stage), on the driver.
    /// Returns the model evidence of the observation.
    pub fn observe(&mut self, pool: State, outcome: bool) -> Result<f64, BayesError> {
        self.observe_in(None, &pool, outcome)
    }

    /// Ingest a whole stage of observations (look-ahead workflows run
    /// several pools per lab round); returns the joint evidence. Stage
    /// accounting is [`Session::observe_stage_in`]'s.
    pub fn observe_stage(&mut self, observations: &[(State, bool)]) -> Result<f64, BayesError> {
        self.observe_stage_in(None, observations.iter().map(|(p, o)| (p, *o)))
    }

    /// Drive the session to classification against a lab oracle, on the
    /// driver ([`Session::run`]).
    pub fn run_to_classification(&mut self, mut lab: impl FnMut(State) -> bool) -> SessionOutcome {
        self.run(None, |pool| lab(*pool))
    }

    /// Drive exactly one round on the driver ([`Session::round`]).
    pub fn run_round(&mut self, mut lab: impl FnMut(State) -> bool) -> RoundStep {
        self.round(None, |pool| lab(*pool))
    }

    /// Bayesian Halving Algorithm: the next pool to test, or `None` when
    /// every subject is already classified.
    pub fn select_next(&self) -> Option<Selection> {
        self.backend()
            .select_next(None, self.config(), &self.eligible_order())
    }

    /// Look-ahead stage selection: up to `width` pools for one lab round,
    /// on the **branch-fused** fast path (its blocks inline or on rayon per
    /// the configured [`ExecMode`](crate::ExecMode)) — no branch posterior
    /// is materialized.
    /// Rejects a zero `width` with [`SelectError::InvalidArgument`].
    pub fn select_stage(&self, width: usize) -> Result<Vec<Selection>, SelectError> {
        let cfg = LookaheadConfig {
            width,
            max_pool_size: self.config().max_pool_size,
        };
        self.backend()
            .select_stage(None, self.config(), &cfg, &self.eligible_order())
    }

    /// Full statistical readout (marginals, entropy, MAP, top-k, rank
    /// distribution), its blocks run where the configured [`ExecMode`]
    /// says.
    ///
    /// [`ExecMode`]: crate::ExecMode
    pub fn report(&self, top_k: usize) -> PosteriorReport {
        analyze_on(&self.backend().dense_view(), top_k, self.config().exec)
    }
}

impl<M: BinaryOutcomeModel> Session<ExactBackend<ShardedPosterior, M>> {
    /// Open a session: shard the prior posterior into `parts` partitions
    /// and run one marginals stage to seed the classification state.
    pub fn new(engine: &Engine, prior: Prior, model: M, config: SbgtConfig, parts: usize) -> Self {
        let posterior = ShardedPosterior::from_dense(&prior.to_dense(), parts);
        let cache = ShardedCache {
            marginals: posterior.marginals(engine),
            pending_selection: None,
            massless: None,
        };
        Session::open(
            ExactBackend::new(Arm::Dense(posterior), cache, model, prior.n_subjects()),
            config,
        )
    }

    /// Exact BHA selection: fresh eligible ordering, one read-only
    /// all-prefix mass stage. `None` when the cohort is classified.
    pub fn select_next(&self, engine: &Engine) -> Option<Selection> {
        self.backend()
            .select_next(engine, self.config(), &self.eligible_order())
    }

    /// Select all pools of one look-ahead stage on the **engine-sharded
    /// fused path**, bit-for-bit the pools of the serial clone-per-branch
    /// rule (pinned by the chaos-equivalence suite, with and without
    /// injected faults). Empty when the cohort is already classified.
    pub fn select_stage(
        &self,
        engine: &Engine,
        cfg: &LookaheadConfig,
    ) -> Result<Vec<Selection>, SelectError> {
        self.backend()
            .select_stage(engine, self.config(), cfg, &self.eligible_order())
    }

    /// Ingest one observed pooled test as a single fused in-place stage;
    /// returns the model evidence.
    pub fn observe(
        &mut self,
        engine: &Engine,
        pool: State,
        outcome: bool,
    ) -> Result<f64, BayesError> {
        self.observe_in(engine, &pool, outcome)
    }

    /// Ingest all observed outcomes of one look-ahead stage under a single
    /// stage count; returns the joint model evidence. Stage accounting is
    /// [`Session::observe_stage_in`]'s.
    pub fn observe_stage(
        &mut self,
        engine: &Engine,
        observations: &[(State, bool)],
    ) -> Result<f64, BayesError> {
        self.observe_stage_in(engine, observations.iter().map(|(p, o)| (p, *o)))
    }

    /// Drive the session to classification against a lab oracle, one fused
    /// stage per round ([`Session::run`]). A failed stage panics; to survive
    /// one, drive [`Self::run_round`] from a pre-round snapshot and replay,
    /// as the service does.
    pub fn run_to_classification(
        &mut self,
        engine: &Engine,
        mut lab: impl FnMut(State) -> bool,
    ) -> SessionOutcome {
        self.run(engine, |pool| lab(*pool))
    }

    /// Drive exactly one round ([`Session::round`]) — the unit a
    /// multi-cohort service schedules onto a shared engine.
    pub fn run_round(&mut self, engine: &Engine, mut lab: impl FnMut(State) -> bool) -> RoundStep {
        self.round(engine, |pool| lab(*pool))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecMode, ParConfig};
    use sbgt_engine::EngineConfig;
    use sbgt_lattice::SparseSwitch;
    use sbgt_response::BinaryDilutionModel;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    fn engine() -> Engine {
        Engine::new(EngineConfig::default().with_threads(2))
    }

    fn session(exec: ExecMode) -> SbgtSession<BinaryDilutionModel> {
        session_of(
            Prior::from_risks(&[0.02, 0.05, 0.01, 0.1, 0.03, 0.08, 0.02, 0.04]),
            exec,
        )
    }

    fn session_of(prior: Prior, exec: ExecMode) -> SbgtSession<BinaryDilutionModel> {
        SbgtSession::new(
            prior,
            BinaryDilutionModel::pcr_like(),
            SbgtConfig {
                exec,
                ..SbgtConfig::default()
            },
        )
    }

    fn parallel() -> ExecMode {
        ExecMode::Parallel(ParConfig)
    }

    /// Ten subjects with distinct risks: a flat prior would leave the
    /// ascending-marginal ordering to last-ulp noise (dense and sharded
    /// summation orders differ), sending the two representations down
    /// different — equally valid — BHA trajectories.
    fn distinct_risks() -> Prior {
        Prior::from_risks(&[0.03, 0.07, 0.02, 0.09, 0.05, 0.04, 0.08, 0.06, 0.025, 0.045])
    }

    fn switch(max_support_fraction: f64) -> SparseSwitch {
        SparseSwitch {
            max_support_fraction,
            prune_epsilon: 1e-9,
        }
    }

    /// Seventeen subjects are two 2^16-state blocks: every read-out folds
    /// block partials, in the same order on rayon as inline.
    #[test]
    fn serial_and_parallel_sessions_are_bitwise_equal() {
        let risks: Vec<f64> = (0..17).map(|i| 0.01 + 0.01 * (i % 6) as f64).collect();
        let mut a = session_of(Prior::from_risks(&risks), ExecMode::Serial);
        let mut b = session_of(Prior::from_risks(&risks), parallel());
        let pool = State::from_subjects([0, 1, 2, 3, 16]);
        let za = a.observe(pool, true).unwrap();
        let zb = b.observe(pool, true).unwrap();
        assert_eq!(za.to_bits(), zb.to_bits());
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(a.marginals()), bits(b.marginals()));
        let (sa, sb) = (a.select_next().unwrap(), b.select_next().unwrap());
        assert_eq!(sa.pool, sb.pool);
        assert_eq!(sa.negative_mass.to_bits(), sb.negative_mass.to_bits());
        let ra = a.report(3);
        let rb = b.report(3);
        assert_eq!(ra.entropy.to_bits(), rb.entropy.to_bits());
        assert_eq!(ra.map_state.0, rb.map_state.0);
        assert_eq!(bits(ra.rank_distribution), bits(rb.rank_distribution));
    }

    #[test]
    fn select_next_none_when_classified() {
        let prior = Prior::flat(4, 0.02);
        let mut s = SbgtSession::new(
            prior,
            BinaryDilutionModel::perfect(),
            SbgtConfig::default().serial(),
        );
        // One all-negative pool classifies everyone at these thresholds.
        s.observe(State::from_subjects([0, 1, 2, 3]), false)
            .unwrap();
        assert!(s.classify().is_terminal());
        assert!(s.select_next().is_none());
    }

    #[test]
    fn select_stage_dispatches_and_validates() {
        let mut a = session(ExecMode::Serial);
        let mut b = session(parallel());
        let pool = State::from_subjects([0, 1, 2]);
        a.observe(pool, true).unwrap();
        b.observe(pool, true).unwrap();
        assert_eq!(a.select_stage(3).unwrap(), b.select_stage(3).unwrap());
        // Zero width is a typed error, not a panic.
        assert!(matches!(
            a.select_stage(0),
            Err(SelectError::InvalidArgument(_))
        ));
    }

    #[test]
    fn adaptive_switch_happens_mid_run_and_still_classifies() {
        let truth = State::from_subjects([2, 7]);
        let mut s = SbgtSession::new(
            Prior::flat(10, 0.05),
            BinaryDilutionModel::perfect(),
            SbgtConfig::default()
                .serial()
                .with_sparse_switch(switch(0.5)),
        );
        assert!(!s.is_sparse());
        let outcome = s.run_to_classification(|pool| truth.intersects(pool));
        assert!(outcome.classification.is_terminal());
        assert_eq!(outcome.classification.positives(), 2);
        // A perfect-model run collapses support fast; the switch must have
        // fired well before classification at a 50% threshold.
        assert!(s.is_sparse(), "session never switched to sparse");
        let sp = s.sparse_posterior().unwrap();
        assert!(sp.support() < 1 << 10);
        // Conservation holds on the live sparse posterior.
        assert!((sp.total() + sp.pruned_mass() - 1.0).abs() < 1e-9);
        // Dense-only views still work by materializing.
        let report = s.report(2);
        assert!(report.entropy >= 0.0);
    }

    #[test]
    #[should_panic(expected = "switched to sparse")]
    fn dense_accessor_panics_after_switch() {
        let truth = State::from_subjects([0]);
        let mut s = SbgtSession::new(
            Prior::flat(6, 0.05),
            BinaryDilutionModel::perfect(),
            SbgtConfig::default()
                .serial()
                .with_sparse_switch(switch(1.0)),
        );
        // With the threshold at the whole lattice, the first informative
        // observation triggers the switch.
        let _ = s.run_round(|pool| truth.intersects(pool));
        assert!(s.is_sparse());
        let _ = s.posterior();
    }

    #[test]
    fn rounds_run_as_single_in_place_stages() {
        let e = engine();
        let truth = State::from_subjects([2]);
        let mut s = ShardedSession::new(
            &e,
            Prior::flat(8, 0.06),
            BinaryDilutionModel::perfect(),
            SbgtConfig::default(),
            4,
        );
        e.metrics().clear();
        let outcome = s.run_to_classification(&e, |pool| truth.intersects(pool));
        assert!(outcome.classification.is_terminal());
        // Steady-state rounds are one fused in-place stage each; only the
        // bootstrap selection may add one read-only stage.
        let aggs = e.metrics().stage_aggregates();
        let fused: Vec<_> = aggs
            .iter()
            .filter(|a| a.name.contains("fused-round"))
            .collect();
        let fused_jobs: u64 = fused.iter().map(|a| a.jobs).sum();
        assert_eq!(
            fused_jobs as usize, outcome.tests,
            "one fused stage per observation"
        );
        let jobs: u64 = aggs.iter().map(|a| a.jobs).sum();
        assert!(
            jobs as usize <= outcome.tests + 1,
            "at most one bootstrap stage beyond the fused rounds ({jobs} jobs, {} tests)",
            outcome.tests
        );
        // The session owns its shards alone: no fused round copied one.
        assert!(fused.iter().all(|a| a.copied_partitions == 0));
    }

    #[test]
    fn observe_matches_dense_session_evidence() {
        let e = engine();
        let prior = Prior::from_risks(&[0.02, 0.05, 0.01, 0.1, 0.03, 0.08, 0.02, 0.04]);
        let model = BinaryDilutionModel::pcr_like();
        let mut sharded = ShardedSession::new(&e, prior.clone(), model, SbgtConfig::default(), 3);
        let mut dense = SbgtSession::new(prior, model, SbgtConfig::default().serial());
        let pool = State::from_subjects([0, 1, 2, 3]);
        let zs = sharded.observe(&e, pool, true).unwrap();
        let zd = dense.observe(pool, true).unwrap();
        assert!(close(zs, zd), "evidence {zs} vs {zd}");
        for (a, b) in sharded.marginals().iter().zip(dense.marginals()) {
            assert!(close(*a, b));
        }
        assert_eq!(sharded.history(), dense.history());
    }

    #[test]
    fn exact_select_agrees_with_dense_prefix_rule() {
        let e = engine();
        // Distinct risks, none on the symmetric(0.99) boundary: a subject
        // at exactly 0.01 flips classification on ulp-level summation
        // differences between the dense and sharded paths.
        let prior = Prior::from_risks(&[0.02, 0.05, 0.03, 0.1, 0.035, 0.08, 0.025, 0.04]);
        let model = BinaryDilutionModel::pcr_like();
        let mut sharded = ShardedSession::new(&e, prior.clone(), model, SbgtConfig::default(), 3);
        let mut dense = SbgtSession::new(prior, model, SbgtConfig::default().serial());
        let pool = State::from_subjects([1, 5]);
        sharded.observe(&e, pool, false).unwrap();
        dense.observe(pool, false).unwrap();
        let a = sharded.select_next(&e).unwrap();
        let b = dense.select_next().unwrap();
        assert_eq!(a.pool, b.pool);
        assert!(close(a.negative_mass, b.negative_mass));
    }

    #[test]
    fn wide_stage_loop_counts_stages_not_tests() {
        let e = engine();
        let truth = State::from_subjects([1, 6]);
        let mut s = ShardedSession::new(
            &e,
            distinct_risks(),
            BinaryDilutionModel::perfect(),
            SbgtConfig::default().with_stage_width(3),
            4,
        );
        let outcome = s.run_to_classification(&e, |pool| truth.intersects(pool));
        assert!(outcome.classification.is_terminal());
        assert!(
            outcome.stages < outcome.tests,
            "width-3 stages must bank several tests per stage ({} stages, {} tests)",
            outcome.stages,
            outcome.tests
        );
        // The selection stages ran on the sharded fused path.
        let aggs = e.metrics().stage_aggregates();
        assert!(aggs.iter().any(|a| a.name == "lookahead:select"));
    }

    #[test]
    fn engine_recorder_captures_cohort_tagged_round_spans() {
        use sbgt_engine::obs::{ObsConfig, SpanKind};
        let e = Engine::new(
            EngineConfig::default()
                .with_threads(2)
                .with_obs(ObsConfig::full()),
        );
        let truth = State::from_subjects([3, 7]);
        let mut s = ShardedSession::new(
            &e,
            distinct_risks(),
            BinaryDilutionModel::perfect(),
            SbgtConfig::default(),
            4,
        );
        assert_eq!(s.cohort(), None);
        s.set_cohort(42);
        assert_eq!(s.cohort(), Some(42));
        let outcome = s.run_to_classification(&e, |pool| truth.intersects(pool));
        assert!(outcome.classification.is_terminal());
        let snap = e.obs().snapshot();
        let events: Vec<_> = snap.all_events().collect();
        let rec = e.obs();
        // Round and phase spans carry the cohort tag; the engine's own
        // stage spans (the fused rounds) share the same recorder.
        assert!(events
            .iter()
            .any(|ev| ev.kind == SpanKind::Round && ev.meta.cohort == 42));
        assert!(events.iter().any(|ev| ev.kind == SpanKind::Phase
            && ev.meta.cohort == 42
            && rec.name_of(ev.name) == "session:observe"));
        assert!(events
            .iter()
            .any(|ev| ev.kind == SpanKind::Stage && rec.name_of(ev.name).contains("fused-round")));
    }

    #[test]
    fn adaptive_switch_runs_sparse_rounds_on_the_engine() {
        let e = engine();
        let truth = State::from_subjects([3, 7]);
        let config = SbgtConfig::default().with_sparse_switch(switch(0.5));
        let mut s = ShardedSession::new(
            &e,
            distinct_risks(),
            BinaryDilutionModel::perfect(),
            config,
            4,
        );
        e.metrics().clear();
        let outcome = s.run_to_classification(&e, |pool| truth.intersects(pool));
        assert!(outcome.classification.is_terminal());
        assert_eq!(outcome.classification.positives(), 2);
        assert!(s.is_sparse(), "session never switched to sparse");
        assert!(s.sparse_posterior().unwrap().support() < 1 << 10);
        // Post-switch rounds ran as engine stages under their own name.
        let aggs = e.metrics().stage_aggregates();
        let jobs_of =
            |name: &str| -> u64 { aggs.iter().filter(|a| a.name == name).map(|a| a.jobs).sum() };
        assert!(
            jobs_of("fused-round:sparse") >= 1,
            "no sparse round ran on the engine"
        );
        // The switch itself ran the support-count and collect stages.
        assert!(jobs_of("sparse:support") >= 1);
        assert!(jobs_of("sparse:collect") >= 1);
    }

    #[test]
    fn hybrid_sharded_matches_hybrid_dense_session() {
        let e = engine();
        let truth = State::from_subjects([1, 8]);
        let model = BinaryDilutionModel::perfect();
        let mut sharded = ShardedSession::new(
            &e,
            distinct_risks(),
            model,
            SbgtConfig::default().with_sparse_switch(switch(0.5)),
            4,
        );
        let so = sharded.run_to_classification(&e, |pool| truth.intersects(pool));
        let mut dense = SbgtSession::new(
            distinct_risks(),
            model,
            SbgtConfig::default()
                .serial()
                .with_sparse_switch(switch(0.5)),
        );
        let do_ = dense.run_to_classification(|pool| truth.intersects(pool));
        assert_eq!(
            so.classification.statuses, do_.classification.statuses,
            "hybrid sharded and hybrid dense must classify identically"
        );
        assert!(sharded.is_sparse() && dense.is_sparse());
        for (a, b) in so.marginals.iter().zip(&do_.marginals) {
            assert!(close(*a, *b), "{a} vs {b}");
        }
    }

    fn sparse_risks() -> Prior {
        Prior::from_risks(&[0.02, 0.08, 0.03, 0.15, 0.05, 0.1, 0.04])
    }

    #[test]
    fn pruning_shrinks_support_during_episode() {
        let model = BinaryDilutionModel::pcr_like();
        let cfg = SbgtConfig::default().serial();
        let mut s = SbgtSession::new_sparse(sparse_risks(), model, cfg, 1e-9).unwrap();
        let initial = s.sparse_posterior().unwrap().support();
        s.observe(State::from_subjects([0, 1, 2, 3]), false)
            .unwrap();
        s.observe(State::from_subjects([4, 5, 6]), false).unwrap();
        let sp = s.sparse_posterior().unwrap();
        assert!(sp.support() < initial, "{} !< {initial}", sp.support());
        assert!(sp.pruned_mass() > 0.0);
    }

    #[test]
    fn aggressive_pruning_still_tracks_truth_with_perfect_assay() {
        // With a perfect assay, the true state's mass only ever grows
        // relatively, so even harsh pruning keeps it.
        let truth = State::from_subjects([1]);
        let model = BinaryDilutionModel::perfect();
        let cfg = SbgtConfig::default().serial();
        let mut s = SbgtSession::new_sparse(Prior::flat(8, 0.05), model, cfg, 1e-3).unwrap();
        let out = s.run_to_classification(|pool| truth.intersects(pool));
        assert!(out.classification.is_terminal());
        assert_eq!(out.classification.positives(), 1);
    }

    /// Regression: an out-of-range epsilon used to `assert!`-panic inside
    /// the constructor, taking down the whole process when a service opened
    /// a cohort from bad configuration. It is now the workspace-standard
    /// typed error.
    #[test]
    fn epsilon_out_of_range_is_typed_error_not_panic() {
        let model = BinaryDilutionModel::pcr_like();
        let open =
            |eps| SbgtSession::new_sparse(Prior::flat(3, 0.1), model, SbgtConfig::default(), eps);
        for bad in [1.0, 1.5, -0.1, f64::NAN] {
            match open(bad) {
                Err(ConfigError::InvalidArgument(msg)) => {
                    assert!(msg.contains("prune epsilon"), "message: {msg}")
                }
                Ok(_) => panic!("epsilon {bad} must be rejected"),
            }
        }
        // And the boundary values are accepted.
        assert!(open(0.0).is_ok());
    }

    #[test]
    fn engine_backed_rounds_match_driver_rounds_bit_for_bit() {
        let e = engine();
        let truth = State::from_subjects([1, 6]);
        let model = BinaryDilutionModel::perfect();
        let cfg = SbgtConfig::default().serial();
        let mk = || SbgtSession::new_sparse(Prior::flat(8, 0.07), model, cfg, 1e-9).unwrap();
        let mut driver = mk();
        let expected = driver.run_to_classification(|pool| truth.intersects(pool));
        let mut staged = mk();
        e.metrics().clear();
        let outcome = loop {
            if let Some(o) = staged
                .round(Some(&e), |pool| truth.intersects(*pool))
                .finished()
            {
                break o;
            }
        };
        assert_eq!(outcome, expected);
        assert_eq!(staged.history(), driver.history());
        let entries = |s: &SbgtSession<_>| s.sparse_posterior().unwrap().entries().to_vec();
        for (a, b) in entries(&staged).iter().zip(&entries(&driver)) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        // Every observation ran as a sparse engine stage.
        let aggs = e.metrics().stage_aggregates();
        let sparse = aggs
            .iter()
            .find(|a| a.name == "fused-round:sparse")
            .expect("sparse rounds ran on the engine");
        assert_eq!(sparse.jobs as usize, outcome.tests);
    }
}
