//! # sbgt-select — sequential pooled-test selection
//!
//! The decision-theoretic heart of Bayesian group testing: given the
//! current lattice posterior, which pool should be tested next?
//!
//! * [`halving`] — the **Bayesian Halving Algorithm** (BHA): choose the pool
//!   whose pool-negative posterior mass is closest to ½. The method paper
//!   proves this rule is optimally convergent (the posterior mass of the
//!   true state contracts geometrically) even under strong dilution. Two
//!   implementations are provided:
//!   - an exhaustive candidate scan (`O(|C| · 2^N)`) — the baseline
//!     framework's approach and the test-suite ground truth;
//!   - the sorted-prefix search (`O(2^N + N log N)`) exploiting that, for
//!     independent-ish posteriors, the optimal halving pool is a prefix of
//!     subjects ordered by marginal — combined with the one-pass
//!     all-prefix mass kernel, this is where SBGT's test-selection speedup
//!     comes from.
//! * [`global`] — exact global halving in `O(N · 2^N)` via the zeta
//!   transform (every pool priced by one subset-sum pass);
//! * [`candidates`] — candidate-pool generators (exhaustive up to a size
//!   cap, sorted prefixes, random pools) shared by the selection rules.
//! * [`lookahead`] — the multi-pool look-ahead rules: select `L` pools to
//!   run in one stage (before any outcome is known) by greedily minimizing
//!   the *expected* halving distance over outcome branches. Trades more
//!   tests per stage for fewer stages — experiment E8. Besides the
//!   clone-per-branch baseline this now carries the **branch-fused** paths
//!   (serial and rayon) that score all `2^j` outcome branches in one
//!   lattice traversal per greedy step, plus the shared greedy driver the
//!   engine-sharded session path plugs into.
//! * [`plancache`] — memoized BHA decision plans: outcome-indexed selection
//!   trees keyed by a quantized [`PlanKey`], shared across cohorts so a
//!   config that hits the cache replays precomputed pool selections with
//!   zero search work, falling back to live selection (and extending the
//!   tree in place, under an LRU node budget) when it walks off the tree.

#![forbid(unsafe_code)]

pub mod candidates;
pub mod global;
pub mod halving;
pub mod information;
pub mod lookahead;
pub mod plancache;

pub use candidates::CandidateStrategy;
pub use global::{select_halving_global, select_halving_global_par, GLOBAL_PAR_THRESHOLD};
pub use halving::{
    select_halving_exhaustive, select_halving_from_masses, select_halving_prefix,
    select_halving_prefix_par, select_halving_prefix_sparse, Selection,
};
pub use information::{select_information_gain, InfoSelection};
pub use lookahead::{
    drive_lookahead, select_stage_lookahead, select_stage_lookahead_fused,
    select_stage_lookahead_par, select_stage_lookahead_sparse, LookaheadConfig, SelectError,
};
pub use plancache::{
    PlanCache, PlanCacheStats, PlanCodecError, PlanHandle, PlanKey, PlanLineage, PlanTree,
    RiskQuantizer, PLAN_MAX_STAGE_POOLS,
};
