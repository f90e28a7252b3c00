//! Look-ahead stage selection.
//!
//! A *stage* runs several pooled tests in parallel on the bench before the
//! next posterior update. The method paper's look-ahead rules pick all `L`
//! pools of a stage up front: the first by the ordinary halving rule, each
//! subsequent one by minimizing the **expected** halving distance over the
//! outcome branches of the pools already committed to the stage. More pools
//! per stage means fewer serial stages (lower turnaround time) at the cost
//! of more total tests — the trade-off of experiment E8.
//!
//! Three implementations share one greedy driver ([`drive_lookahead`]):
//!
//! * [`select_stage_lookahead`] — the clone-per-branch baseline: `2^j`
//!   materialized branch posteriors after `j` committed pools, each
//!   re-scored with a full prefix-mass pass. Kept as the reference the
//!   fused paths are pinned against (and as the bench baseline). Width 1
//!   fast-paths to plain prefix halving with **zero** posterior clones.
//! * [`select_stage_lookahead_fused`] — the branch-fused kernel
//!   ([`sbgt_lattice::LookaheadKernel`]): one traversal per greedy step
//!   accumulates every branch's prefix histogram at once; no branch
//!   posterior ever exists. `O(2^N · 2^j)` multiplies but `O(N · 2^j)`
//!   memory, and no allocation proportional to the lattice.
//! * [`select_stage_lookahead_on`] — the fused kernel with its blocks run
//!   where an [`ExecMode`] says ([`DensePosterior::lookahead_histograms`]);
//!   `_fused` runs them inline and `_par` on rayon, with the same bits.
//!
//! The in-memory fused paths run on the **undecided sub-lattice**. Only
//! subjects in `order` can enter a candidate pool or set a first-positive
//! row, so `_on` first projects the posterior onto them once per stage
//! ([`DensePosterior::project`], every other subject summed out) and then
//! runs the unchanged kernel and driver over the `2^m` states of the
//! projection, `m = order.len()`, with `order` renumbered to ranks. A
//! chosen prefix of rank `k` maps back to `order[..k]`. When `order`
//! covers every subject the projection borrows the posterior and the bits
//! are the unprojected kernel's; otherwise they differ from it in ulps,
//! since a state's mass is summed before it is multiplied.
//!
//! The engine-sharded variant (`ShardedSession::select_stage` in the core
//! crate) and the sparse variant reuse the same driver over the full
//! lattice: the sharded one with a histogram closure that runs the kernel
//! as an aggregate stage over posterior partitions.
//!
//! The driver's own bookkeeping is sized for small `m`: candidates are
//! prefixes, so the `cap` prefix pools are built once per call, used
//! prefixes are a bitmask of lengths and the expected-score buffers are
//! reused across steps.

use sbgt_bayes::{update_dense, Observation};
use sbgt_lattice::branch::suffix_sum_rows;
use sbgt_lattice::dense::{first_pos, order_mask, order_tables};
use sbgt_lattice::{
    simd, BranchPool, DensePosterior, ExecMode, LookaheadKernel, ParConfig, SparsePosterior, State,
};
use sbgt_response::BinaryOutcomeModel;

use crate::halving::{select_halving_from_masses, Selection};

/// Errors from selection-rule configuration: invalid configs are rejected
/// with a typed error at the API boundary instead of panicking mid-stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectError {
    /// A selection config failed validation (zero stage width, zero pool
    /// size cap, ...).
    InvalidArgument(String),
}

impl std::fmt::Display for SelectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for SelectError {}

/// Configuration for a look-ahead stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LookaheadConfig {
    /// Number of pools to select for the stage (`L ≥ 1`); `L = 1`
    /// degenerates to the plain halving rule.
    pub width: usize,
    /// Largest admissible pool size.
    pub max_pool_size: usize,
}

impl Default for LookaheadConfig {
    fn default() -> Self {
        LookaheadConfig {
            width: 1,
            max_pool_size: 32,
        }
    }
}

impl LookaheadConfig {
    /// Validate the config. A zero `width` or `max_pool_size` cannot select
    /// anything and is a caller bug, rejected with
    /// [`SelectError::InvalidArgument`] (the pre-PR-3 behaviour was an
    /// `assert!` panic inside the selection loop).
    pub fn validate(&self) -> Result<(), SelectError> {
        if self.width == 0 {
            return Err(SelectError::InvalidArgument(
                "stage width must be at least 1".to_string(),
            ));
        }
        if self.max_pool_size == 0 {
            return Err(SelectError::InvalidArgument(
                "pool size cap must be at least 1".to_string(),
            ));
        }
        Ok(())
    }
}

/// Build the fused-kernel form of a committed pool: its mask plus both
/// outcome likelihood tables.
fn branch_pool<M: BinaryOutcomeModel>(model: &M, pool: State) -> BranchPool {
    BranchPool {
        mask: pool.bits(),
        tables: [
            model.likelihood_table(false, pool.rank()),
            model.likelihood_table(true, pool.rank()),
        ],
    }
}

/// The greedy look-ahead driver shared by the in-memory fused and
/// engine-sharded paths.
///
/// `histograms(pools)` must return the `(order.len() + 1) × 2^j`
/// branch-weighted first-positive histogram of the **initial, unnormalized**
/// posterior under the `j` committed `pools` (layout of
/// [`LookaheadKernel::histograms`]). The driver suffix-sums it into
/// per-branch prefix masses, normalizes each branch by its own total,
/// weights branches by their predictive probability (`branch total / step-0
/// total` — exactly the chained evidences of the clone-per-branch baseline),
/// and picks the prefix minimizing expected halving distance. Dead branches
/// (non-finite or zero total — impossible outcomes under a degenerate
/// model) are skipped, matching the baseline dropping failed updates.
pub fn drive_lookahead<M: BinaryOutcomeModel>(
    model: &M,
    order: &[usize],
    cfg: &LookaheadConfig,
    mut histograms: impl FnMut(&[BranchPool]) -> Vec<f64>,
) -> Result<Vec<Selection>, SelectError> {
    cfg.validate()?;
    let cap = cfg.max_pool_size.min(order.len());
    if cap == 0 {
        return Ok(Vec::new());
    }

    let prefixes = prefix_pools(order, cap);
    let mut pools: Vec<BranchPool> = Vec::new();
    let mut chosen: Vec<Selection> = Vec::with_capacity(cfg.width);
    let mut used = 0u128;
    let mut z0 = 0.0f64;
    let mut expected_mass = vec![0.0f64; cap + 1];
    let mut expected_dist = vec![0.0f64; cap + 1];

    for step in 0..cfg.width {
        let nb = 1usize << pools.len();
        let hist = histograms(&pools);
        debug_assert_eq!(hist.len(), (order.len() + 1) * nb);
        let masses = suffix_sum_rows(&hist, nb);
        if step == 0 {
            z0 = masses[0];
            if !(z0.is_finite() && z0 > 0.0) {
                return Ok(Vec::new());
            }
        }

        expected_mass.fill(0.0);
        expected_dist.fill(0.0);
        let mut live = 0usize;
        for b in 0..nb {
            let total = masses[b];
            if !(total.is_finite() && total > 0.0) {
                continue;
            }
            live += 1;
            let w = total / z0;
            for k in 1..=cap {
                let m = masses[k * nb + b] / total;
                expected_mass[k] += w * m;
                expected_dist[k] += w * (m - 0.5).abs();
            }
        }
        if live == 0 {
            break;
        }

        let Some(k) = best_unused_prefix(&expected_dist, used) else {
            break;
        };
        used |= 1 << k;
        chosen.push(Selection {
            pool: prefixes[k],
            negative_mass: expected_mass[k],
            distance: expected_dist[k],
        });

        if chosen.len() == cfg.width {
            break;
        }
        pools.push(branch_pool(model, prefixes[k]));
    }
    Ok(chosen)
}

/// The prefix pools `order[..k]` for `k = 0..=cap`, each one subject more
/// than the last.
fn prefix_pools(order: &[usize], cap: usize) -> Vec<State> {
    let mut pools = Vec::with_capacity(cap + 1);
    let mut pool = State::EMPTY;
    pools.push(pool);
    for &subj in &order[..cap] {
        pool = State(pool.bits() | 1 << subj);
        pools.push(pool);
    }
    pools
}

/// The prefix length `k ≥ 1` minimising `expected_dist[k]` among those not
/// set in `used` (bit `k` = prefix `k` already in the stage); the shortest
/// wins unless a longer one is better by more than
/// [`Selection::DISTANCE_EPS`].
fn best_unused_prefix(expected_dist: &[f64], used: u128) -> Option<usize> {
    let mut best: Option<usize> = None;
    for k in 1..expected_dist.len() {
        if used & (1 << k) != 0 {
            continue;
        }
        let better = match best {
            None => true,
            Some(bk) => expected_dist[k] + Selection::DISTANCE_EPS < expected_dist[bk],
        };
        if better {
            best = Some(k);
        }
    }
    best
}

/// Branch-fused look-ahead selection over the dense posterior, every
/// block inline.
///
/// Selects the same pools as [`select_stage_lookahead`] (pinned bit-for-bit
/// by property tests) without ever materializing a branch posterior: each
/// greedy step is one fused traversal of the *initial* posterior
/// accumulating all `2^j` branch histograms at once.
pub fn select_stage_lookahead_fused<M: BinaryOutcomeModel>(
    posterior: &DensePosterior,
    model: &M,
    order: &[usize],
    cfg: &LookaheadConfig,
) -> Result<Vec<Selection>, SelectError> {
    select_stage_lookahead_on(posterior, model, order, cfg, ExecMode::Serial)
}

/// [`select_stage_lookahead_fused`] with its blocks on rayon; the same
/// selections, bit for bit.
pub fn select_stage_lookahead_par<M: BinaryOutcomeModel>(
    posterior: &DensePosterior,
    model: &M,
    order: &[usize],
    cfg: &LookaheadConfig,
    par: ParConfig,
) -> Result<Vec<Selection>, SelectError> {
    select_stage_lookahead_on(posterior, model, order, cfg, ExecMode::Parallel(par))
}

/// [`select_stage_lookahead_fused`] with its blocks run where `exec` says.
///
/// The posterior is first projected onto `order`'s subjects
/// ([`DensePosterior::project`]): a subject outside `order` can enter no
/// candidate pool and set no first-positive row, so summing it out is
/// exact, and each greedy step then scans `2^m` states for `m =
/// order.len()` instead of `2^N`. The driver runs on the projected lattice
/// with `order` renumbered to ranks, and a chosen prefix of rank `k` is
/// `order[..k]`. When `order` covers every subject the projection is the
/// identity and the bits are those of the unprojected kernel.
///
/// # Panics
/// Panics if `order` contains a duplicate or an index `>= n`, matching
/// [`LookaheadKernel::new`], before any projection.
pub fn select_stage_lookahead_on<M: BinaryOutcomeModel>(
    posterior: &DensePosterior,
    model: &M,
    order: &[usize],
    cfg: &LookaheadConfig,
    exec: ExecMode,
) -> Result<Vec<Selection>, SelectError> {
    cfg.validate()?;
    let keep = order_mask(posterior.n_subjects(), order);
    let projected = posterior.project(keep);
    let ranks: Vec<usize> = order
        .iter()
        .map(|&subj| (keep & ((1 << subj) - 1)).count_ones() as usize)
        .collect();
    let kernel = LookaheadKernel::new(projected.n_subjects(), &ranks);
    let chosen = drive_lookahead(model, &ranks, cfg, |pools| {
        projected.lookahead_histograms(&kernel, pools, exec)
    })?;
    Ok(chosen
        .into_iter()
        .map(|s| Selection {
            pool: State::from_subjects(order[..s.pool.rank() as usize].iter().copied()),
            ..s
        })
        .collect())
}

/// Branch-fused look-ahead selection over a **sparse** (pruned) posterior —
/// the counterpart of [`select_stage_lookahead_fused`] that
/// [`crate::halving::select_halving_prefix_sparse`] was missing for
/// width > 1 stages.
///
/// Reuses the same greedy driver with a histogram closure that traverses
/// the retained entries only: per entry the committed pools' branch
/// products are built by the shared iterative-doubling primitive and
/// scattered into the entry's first-positive row. Cost per greedy step is
/// `O(support · 2^j)` instead of `O(2^N · 2^j)`. At ε = 0 (nothing pruned)
/// this selects exactly the pools of the dense fused path.
///
/// # Panics
/// Panics if `order` contains a duplicate or an index `>= n`, matching
/// [`LookaheadKernel::new`].
pub fn select_stage_lookahead_sparse<M: BinaryOutcomeModel>(
    posterior: &SparsePosterior,
    model: &M,
    order: &[usize],
    cfg: &LookaheadConfig,
) -> Result<Vec<Selection>, SelectError> {
    cfg.validate()?;
    let rows = order.len() + 1;
    let tables = order_tables(posterior.n_subjects(), order);
    drive_lookahead(model, order, cfg, |pools| {
        let nb = 1usize << pools.len();
        let mut hist = vec![0.0f64; rows * nb];
        let mut prod = vec![0.0f64; nb];
        for &(s, p) in posterior.entries() {
            prod[0] = p;
            let mut cur = 1usize;
            for pool in pools {
                let k = (s.bits() & pool.mask).count_ones() as usize;
                simd::lookahead_double_block(&mut prod, cur, pool.tables[0][k], pool.tables[1][k]);
                cur <<= 1;
            }
            let row = first_pos(&tables, s.bits()) as usize * nb;
            simd::add_assign_block(&mut hist[row..row + nb], &prod);
        }
        hist
    })
}

/// Select the pools of one stage by greedy expected-halving search over
/// prefix candidates of `order` (subjects by ascending marginal) — the
/// clone-per-branch baseline.
///
/// Returns up to `cfg.width` selections; each [`Selection`]'s
/// `negative_mass`/`distance` are the **expected** values over the outcome
/// branches of the previously committed pools (for the first pool they
/// coincide with the plain halving quantities). Fewer pools are returned
/// when candidates run out or every branch dies (impossible outcomes under
/// a degenerate model). An invalid config is rejected with
/// [`SelectError::InvalidArgument`].
///
/// `width == 1` fast-paths to plain prefix halving with zero posterior
/// clones. For `width > 1` prefer [`select_stage_lookahead_fused`] /
/// [`select_stage_lookahead_par`]: they select identical pools without the
/// `O(2^j · 2^N)` branch materialization.
pub fn select_stage_lookahead<M: BinaryOutcomeModel>(
    posterior: &DensePosterior,
    model: &M,
    order: &[usize],
    cfg: &LookaheadConfig,
) -> Result<Vec<Selection>, SelectError> {
    cfg.validate()?;
    let cap = cfg.max_pool_size.min(order.len());
    if cap == 0 {
        return Ok(Vec::new());
    }

    if cfg.width == 1 {
        // Degenerate stage: the expected halving distance over zero
        // committed pools IS the plain halving distance — reuse the
        // all-prefix kernel directly instead of cloning into a branch.
        let masses = posterior.prefix_negative_masses(order);
        return Ok(select_halving_from_masses(order, &masses, cap)
            .into_iter()
            .collect());
    }

    // Outcome branches: (normalized posterior, probability weight).
    let mut branches: Vec<(DensePosterior, f64)> = vec![(posterior.clone(), 1.0)];
    if branches[0].0.try_normalize().is_none() {
        return Ok(Vec::new());
    }

    let prefixes = prefix_pools(order, cap);
    let mut chosen: Vec<Selection> = Vec::with_capacity(cfg.width);
    let mut used = 0u128;

    for _ in 0..cfg.width {
        // Score every prefix candidate against every branch in one
        // all-prefix pass per branch.
        let mut expected_mass = vec![0.0f64; cap + 1];
        let mut expected_dist = vec![0.0f64; cap + 1];
        for (post, w) in &branches {
            let masses = post.prefix_negative_masses(order);
            let total = masses[0];
            if !(total.is_finite() && total > 0.0) {
                continue;
            }
            for k in 1..=cap {
                let m = masses[k] / total;
                expected_mass[k] += w * m;
                expected_dist[k] += w * (m - 0.5).abs();
            }
        }
        let Some(k) = best_unused_prefix(&expected_dist, used) else {
            break;
        };
        used |= 1 << k;
        let pool = prefixes[k];
        chosen.push(Selection {
            pool,
            negative_mass: expected_mass[k],
            distance: expected_dist[k],
        });

        if chosen.len() == cfg.width {
            break;
        }

        // Branch every posterior on the chosen pool's two outcomes.
        let mut next: Vec<(DensePosterior, f64)> = Vec::with_capacity(branches.len() * 2);
        for (post, w) in branches {
            for outcome in [false, true] {
                let mut branched = post.clone();
                // An impossible branch has zero predictive mass.
                if let Ok(z) = update_dense(&mut branched, model, &Observation::new(pool, outcome))
                {
                    next.push((branched, w * z));
                }
            }
        }
        if next.is_empty() {
            break;
        }
        branches = next;
    }
    Ok(chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::halving::select_halving_prefix;
    use sbgt_response::BinaryDilutionModel;

    fn ascending_order(risks: &[f64]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..risks.len()).collect();
        order.sort_by(|&a, &b| risks[a].total_cmp(&risks[b]));
        order
    }

    #[test]
    fn width_one_matches_plain_halving() {
        let risks = [0.02, 0.08, 0.05, 0.15, 0.01];
        let post = DensePosterior::from_risks(&risks);
        let order = ascending_order(&risks);
        let model = BinaryDilutionModel::pcr_like();
        let cfg = LookaheadConfig {
            width: 1,
            max_pool_size: 5,
        };
        let stage = select_stage_lookahead(&post, &model, &order, &cfg).unwrap();
        let plain = select_halving_prefix(&post, &order, 5).unwrap();
        assert_eq!(stage.len(), 1);
        assert_eq!(stage[0].pool, plain.pool);
        assert!((stage[0].negative_mass - plain.negative_mass).abs() < 1e-9);
    }

    #[test]
    fn wider_stage_returns_distinct_pools() {
        let risks = [0.03, 0.07, 0.12, 0.2, 0.04, 0.09, 0.15, 0.25];
        let post = DensePosterior::from_risks(&risks);
        let order = ascending_order(&risks);
        let model = BinaryDilutionModel::pcr_like();
        let cfg = LookaheadConfig {
            width: 3,
            max_pool_size: 8,
        };
        let stage = select_stage_lookahead(&post, &model, &order, &cfg).unwrap();
        assert_eq!(stage.len(), 3);
        let mut seen = std::collections::HashSet::new();
        for s in &stage {
            assert!(seen.insert(s.pool.bits()), "duplicate pool in stage");
            assert!(s.pool.rank() as usize <= 8);
        }
    }

    #[test]
    fn expected_distance_is_bounded() {
        let risks = [0.1, 0.2, 0.15, 0.05];
        let post = DensePosterior::from_risks(&risks);
        let order = ascending_order(&risks);
        let model = BinaryDilutionModel::pcr_like();
        let cfg = LookaheadConfig {
            width: 2,
            max_pool_size: 4,
        };
        let stage = select_stage_lookahead(&post, &model, &order, &cfg).unwrap();
        for s in &stage {
            assert!(s.distance >= -1e-12 && s.distance <= 0.5 + 1e-12);
            assert!(s.negative_mass >= -1e-12 && s.negative_mass <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn empty_order_yields_empty_stage() {
        let post = DensePosterior::from_risks(&[0.1, 0.1]);
        let model = BinaryDilutionModel::pcr_like();
        let cfg = LookaheadConfig::default();
        assert!(select_stage_lookahead(&post, &model, &[], &cfg)
            .unwrap()
            .is_empty());
        assert!(select_stage_lookahead_fused(&post, &model, &[], &cfg)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn degenerate_posterior_yields_empty_stage() {
        let post = DensePosterior::from_probs(2, vec![0.0; 4]);
        let model = BinaryDilutionModel::pcr_like();
        let cfg = LookaheadConfig::default();
        assert!(select_stage_lookahead(&post, &model, &[0, 1], &cfg)
            .unwrap()
            .is_empty());
        assert!(select_stage_lookahead_fused(&post, &model, &[0, 1], &cfg)
            .unwrap()
            .is_empty());
        let wide = LookaheadConfig {
            width: 3,
            max_pool_size: 2,
        };
        assert!(select_stage_lookahead(&post, &model, &[0, 1], &wide)
            .unwrap()
            .is_empty());
        assert!(select_stage_lookahead_fused(&post, &model, &[0, 1], &wide)
            .unwrap()
            .is_empty());
    }

    /// Regression: a zero-width (or zero-cap) config used to `assert!`-panic
    /// inside the selection loop; it is now rejected with a typed error,
    /// matching `SbgtConfig::validate`.
    #[test]
    fn invalid_config_rejected_without_panicking() {
        let post = DensePosterior::from_risks(&[0.1]);
        let model = BinaryDilutionModel::pcr_like();
        let zero_width = LookaheadConfig {
            width: 0,
            max_pool_size: 1,
        };
        match select_stage_lookahead(&post, &model, &[0], &zero_width) {
            Err(SelectError::InvalidArgument(msg)) => {
                assert!(msg.contains("stage width"), "{msg}");
            }
            other => panic!("expected InvalidArgument, got {other:?}"),
        }
        let zero_cap = LookaheadConfig {
            width: 1,
            max_pool_size: 0,
        };
        match select_stage_lookahead_fused(&post, &model, &[0], &zero_cap) {
            Err(SelectError::InvalidArgument(msg)) => {
                assert!(msg.contains("pool size cap"), "{msg}");
            }
            other => panic!("expected InvalidArgument, got {other:?}"),
        }
        assert!(zero_width.validate().is_err());
        assert!(zero_cap.validate().is_err());
        assert!(LookaheadConfig::default().validate().is_ok());
    }

    #[test]
    fn fused_selects_identical_pools_to_baseline() {
        let risks = [0.03, 0.07, 0.12, 0.2, 0.04, 0.09, 0.15, 0.25, 0.02];
        let post = DensePosterior::from_risks(&risks);
        let order = ascending_order(&risks);
        let model = BinaryDilutionModel::pcr_like();
        for width in 1..=4 {
            let cfg = LookaheadConfig {
                width,
                max_pool_size: 6,
            };
            let base = select_stage_lookahead(&post, &model, &order, &cfg).unwrap();
            let fused = select_stage_lookahead_fused(&post, &model, &order, &cfg).unwrap();
            let par = select_stage_lookahead_par(&post, &model, &order, &cfg, ParConfig).unwrap();
            assert_eq!(base.len(), fused.len(), "width {width}");
            for (b, f) in base.iter().zip(&fused) {
                assert_eq!(b.pool, f.pool, "width {width}");
                assert!((b.negative_mass - f.negative_mass).abs() < 1e-9);
                assert!((b.distance - f.distance).abs() < 1e-9);
            }
            assert_eq!(fused, par, "width {width}");
        }
    }

    /// Also with an `order` that leaves subjects out: the dense path then
    /// runs on its projection, the sparse path on every retained entry.
    #[test]
    fn sparse_unpruned_selects_identical_pools_to_fused() {
        let risks = [0.03, 0.07, 0.12, 0.2, 0.04, 0.09, 0.15, 0.25];
        let post = DensePosterior::from_risks(&risks);
        let sparse = SparsePosterior::from_dense(&post, 0.0);
        let full = ascending_order(&risks);
        let partial: Vec<usize> = full.iter().copied().filter(|&s| s % 3 != 1).collect();
        let model = BinaryDilutionModel::pcr_like();
        for order in [full, partial] {
            for width in 1..=4 {
                let cfg = LookaheadConfig {
                    width,
                    max_pool_size: 6,
                };
                let fused = select_stage_lookahead_fused(&post, &model, &order, &cfg).unwrap();
                let sp = select_stage_lookahead_sparse(&sparse, &model, &order, &cfg).unwrap();
                assert_eq!(fused.len(), sp.len(), "width {width}");
                for (f, s) in fused.iter().zip(&sp) {
                    assert_eq!(f.pool, s.pool, "width {width}");
                    assert!((f.negative_mass - s.negative_mass).abs() < 1e-12);
                    assert!((f.distance - s.distance).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn a_bad_order_panics_before_any_projection() {
        let post = DensePosterior::from_risks(&[0.1, 0.2, 0.3]);
        let model = BinaryDilutionModel::pcr_like();
        let cfg = LookaheadConfig {
            width: 2,
            max_pool_size: 3,
        };
        for (order, msg) in [
            (&[2usize, 2][..], "duplicate subject 2 in order"),
            (&[0, 3][..], "subject 3 out of range"),
        ] {
            let err = std::panic::catch_unwind(|| {
                select_stage_lookahead_fused(&post, &model, order, &cfg)
            })
            .unwrap_err();
            assert_eq!(err.downcast_ref::<String>().map(String::as_str), Some(msg));
        }
    }

    #[test]
    fn sparse_pruned_posterior_still_selects() {
        // A heavily pruned posterior must keep producing valid, distinct
        // pools (scores reflect the retained mass only).
        let risks = [0.02, 0.05, 0.3, 0.08, 0.12, 0.07];
        let dense = DensePosterior::from_risks(&risks);
        let sparse = SparsePosterior::from_dense(&dense, 0.01);
        assert!(sparse.support() < dense.len());
        let order = ascending_order(&risks);
        let model = BinaryDilutionModel::pcr_like();
        let cfg = LookaheadConfig {
            width: 3,
            max_pool_size: 4,
        };
        let stage = select_stage_lookahead_sparse(&sparse, &model, &order, &cfg).unwrap();
        assert_eq!(stage.len(), 3);
        let mut seen = std::collections::HashSet::new();
        for s in &stage {
            assert!(seen.insert(s.pool.bits()));
            assert!(s.distance >= -1e-12 && s.distance <= 0.5 + 1e-12);
        }
    }

    #[test]
    fn fused_works_on_unnormalized_posterior() {
        // The fused path never normalizes; scale invariance must hold.
        let risks = [0.05, 0.11, 0.3, 0.08];
        let mut post = DensePosterior::from_risks(&risks);
        for p in post.probs_mut() {
            *p *= 7.25;
        }
        let order = ascending_order(&risks);
        let model = BinaryDilutionModel::pcr_like();
        let cfg = LookaheadConfig {
            width: 2,
            max_pool_size: 4,
        };
        let base = select_stage_lookahead(&post, &model, &order, &cfg).unwrap();
        let fused = select_stage_lookahead_fused(&post, &model, &order, &cfg).unwrap();
        assert_eq!(base.len(), fused.len());
        for (b, f) in base.iter().zip(&fused) {
            assert_eq!(b.pool, f.pool);
            assert!((b.negative_mass - f.negative_mass).abs() < 1e-9);
        }
    }
}
