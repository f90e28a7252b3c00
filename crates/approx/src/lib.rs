//! # sbgt-approx — approximate posteriors beyond the 2^N wall
//!
//! Every exact execution mode in this workspace — dense, sharded, SIMD,
//! sparse — materializes (or starts from) the full `2^N` lattice, capping
//! cohorts at N ≈ 22–24. This crate is the first backend that never
//! allocates anything `2^N`-sized: cohort sizes are limited by memory in
//! *specimens, pools, and particles*, not hypotheses, so N in the hundreds
//! is routine.
//!
//! Two posterior backends run under `sbgt`'s one generic round driver
//! ([`sbgt::Session`] over the [`sbgt::Backend`] trait); each session type
//! here is an alias of `Session<…Backend>`, opened and restored by its
//! backend's `open` / `restore` and driven through the driver's own entry
//! points (`observe_in`, `run`, `round`) over `BigState` pools:
//!
//! * [`BpSession`] — **loopy belief propagation** on the specimen↔pool
//!   factor graph (Coja-Oghlan et al., *Efficient and accurate group
//!   testing via Belief Propagation*). Variables are specimen infection
//!   bits; every observed pooled test is a factor whose likelihood depends
//!   only on the number of positives in the pool — the same conditional-
//!   independence structure the exact lattice update exploits, here driving
//!   a Poisson-binomial message schedule with damping and a residual
//!   convergence check. A BP session is a pure function of (prior,
//!   history): snapshots carry only the history and restores re-relax,
//!   which makes checkpoint/restore trivially bit-exact.
//! * [`ParticleSession`] — a **sequential Monte Carlo particle posterior**
//!   (Cuturi et al., *Noisy Adaptive Group Testing via Bayesian Sequential
//!   Experimental Design*): N-bit particles, log-weight updates from the
//!   response-model likelihood, effective-sample-size-triggered systematic
//!   resampling, and Metropolis bit-flip rejuvenation — all driven by a
//!   seeded, snapshotable RNG so a run is bit-for-bit reproducible from
//!   `(seed, config)`, including across snapshot/restore.
//!
//! Pools are [`BigState`] word arrays ([`sbgt_lattice::State`] caps at 48
//! subjects); selection is marginal-driven prefix halving with the same
//! tie-break semantics as the exact Bayesian Halving search, evaluated on
//! approximate marginals under an independence approximation.
//!
//! Accuracy against the exact dense reference is pinned by the harness in
//! `tests/accuracy.rs`: ≥ 99% per-specimen classification agreement and an
//! expected-tests gap ≤ 5% across a seeded small-N campaign, for both
//! backends.

#![forbid(unsafe_code)]

pub mod bp;
pub mod factor;
pub mod particle;
pub mod rng;
pub mod select;

pub use bp::{relax_marginals_traced, residual_nanos, BpBackend, BpConfig, BpSession, BpTrace};
pub use factor::{Factor, MIN_LIKELIHOOD};
pub use particle::{ParticleBackend, ParticleConfig, ParticleSession};
pub use rng::SessionRng;
pub use select::{select_halving_marginals, select_stage_marginals, BigSelection};

pub use sbgt::{ApproxKind, ApproxSnapshot, ParticleBlock, RoundStep};
pub use sbgt_lattice::BigState;
