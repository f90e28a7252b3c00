//! Data-parallel lattice kernels.
//!
//! Each `par_*` function runs the block kernel of its serial counterpart on
//! [`DensePosterior`] (see [`crate::dense`]) once per rayon chunk and
//! combines the partials; with one chunk it returns the serial bits. The
//! SBGT operators dispatch to these when the lattice is large enough to
//! amortize fork/join overhead ([`ParConfig::threshold`]), exactly as the
//! Spark framework only shines past a state-count threshold.
//!
//! Parallelism is rayon over contiguous chunks: the state index equals the
//! array index, so a chunk starting at `base` covers states
//! `base .. base + chunk_len` and every kernel recovers the state mask from
//! `base + offset` without any gather.

use rayon::prelude::*;

use crate::dense::{self, DensePosterior};
use crate::state::State;

/// Tuning for the parallel kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParConfig {
    /// Chunk length in states. Chosen so a chunk's mass vector fits L2
    /// (2^16 f64 = 512 KiB halves; 2^14 default = 128 KiB is conservative).
    pub chunk_len: usize,
    /// Below this state count the serial kernel is used (fork/join overhead
    /// dominates under ~64k states).
    pub threshold: usize,
}

impl Default for ParConfig {
    fn default() -> Self {
        ParConfig {
            chunk_len: 1 << 14,
            threshold: 1 << 16,
        }
    }
}

impl ParConfig {
    /// Config that always takes the parallel path (for tests/benches).
    pub fn always_parallel() -> Self {
        ParConfig {
            chunk_len: 1 << 14,
            threshold: 0,
        }
    }
}

/// Parallel fused multiply + total: `probs[s] *= table[|s ∩ pool|]`,
/// returning the new total mass. See
/// [`DensePosterior::mul_likelihood_fused`].
pub fn par_mul_likelihood_fused(
    posterior: &mut DensePosterior,
    pool: State,
    table: &[f64],
    cfg: ParConfig,
) -> f64 {
    assert!(
        table.len() > pool.rank() as usize,
        "likelihood table too short"
    );
    if posterior.len() < cfg.threshold {
        return posterior.mul_likelihood_fused(pool, table);
    }
    let mask = pool.bits();
    let chunk = cfg.chunk_len.max(1);
    posterior
        .probs_mut()
        .par_chunks_mut(chunk)
        .enumerate()
        .map(|(ci, probs)| {
            let base = (ci * chunk) as u64;
            crate::simd::mul_table_block(probs, base, mask, table)
        })
        .sum()
}

/// Parallel normalization: divide by `z` (caller obtains `z` from a fused
/// pass or [`par_total`]).
pub fn par_scale(posterior: &mut DensePosterior, factor: f64, cfg: ParConfig) {
    if posterior.len() < cfg.threshold {
        for p in posterior.probs_mut() {
            *p *= factor;
        }
        return;
    }
    posterior
        .probs_mut()
        .par_chunks_mut(cfg.chunk_len.max(1))
        .for_each(|chunk| {
            for p in chunk {
                *p *= factor;
            }
        });
}

/// Parallel total mass.
pub fn par_total(posterior: &DensePosterior, cfg: ParConfig) -> f64 {
    if posterior.len() < cfg.threshold {
        return posterior.total();
    }
    posterior
        .probs()
        .par_chunks(cfg.chunk_len.max(1))
        .map(|chunk| chunk.iter().sum::<f64>())
        .sum()
}

/// Parallel single-pass marginals (normalized by the total), matching
/// [`DensePosterior::marginals`].
pub fn par_marginals(posterior: &DensePosterior, cfg: ParConfig) -> Vec<f64> {
    if posterior.len() < cfg.threshold {
        return posterior.marginals();
    }
    let n = posterior.n_subjects();
    let chunk = cfg.chunk_len.max(1);
    let (mut acc, total) = posterior
        .probs()
        .par_chunks(chunk)
        .enumerate()
        .map(|(ci, probs)| {
            let mut acc = vec![0.0f64; n];
            let total = dense::marginal_sums(probs, (ci * chunk) as u64, &mut acc);
            (acc, total)
        })
        .reduce(
            || (vec![0.0f64; n], 0.0f64),
            |(mut a, ta), (b, tb)| {
                dense::add_into(&mut a, &b);
                (a, ta + tb)
            },
        );
    dense::normalize_marginals(&mut acc, total);
    acc
}

/// Parallel all-prefix pool-negative masses, matching
/// [`DensePosterior::prefix_negative_masses`].
pub fn par_prefix_negative_masses(
    posterior: &DensePosterior,
    order: &[usize],
    cfg: ParConfig,
) -> Vec<f64> {
    if posterior.len() < cfg.threshold {
        return posterior.prefix_negative_masses(order);
    }
    let rows = order.len() + 1;
    let chunk = cfg.chunk_len.max(1);
    let tables = &dense::order_tables(posterior.n_subjects(), order);
    let hist = posterior
        .probs()
        .par_chunks(chunk)
        .enumerate()
        .map(move |(ci, probs)| {
            let mut hist = vec![0.0f64; rows];
            dense::first_pos_histogram(tables, probs, (ci * chunk) as u64, &mut hist);
            hist
        })
        .reduce(
            || vec![0.0f64; rows],
            |mut a, b| {
                dense::add_into(&mut a, &b);
                a
            },
        );
    dense::suffix_sums(&hist)
}

/// Parallel branch-fused look-ahead histograms, matching
/// [`crate::LookaheadKernel::histograms`] over the whole posterior.
///
/// Each rayon chunk runs the fused kernel on its contiguous state range;
/// the `(m + 1) × 2^j` partial histograms are reduced elementwise. This is
/// the single-node parallel path behind `select_stage_lookahead_par`; the
/// engine-sharded path runs the same kernel per partition instead.
pub fn par_lookahead_histograms(
    posterior: &DensePosterior,
    kernel: &crate::LookaheadKernel,
    pools: &[crate::BranchPool],
    cfg: ParConfig,
) -> Vec<f64> {
    if posterior.len() < cfg.threshold {
        return kernel.histograms(posterior.probs(), 0, pools);
    }
    let chunk = cfg.chunk_len.max(1);
    let nb = crate::branch::num_branches(pools);
    posterior
        .probs()
        .par_chunks(chunk)
        .enumerate()
        .map(|(ci, probs)| kernel.histograms(probs, (ci * chunk) as u64, pools))
        .reduce(
            || vec![0.0f64; kernel.num_prefixes() * nb],
            |mut a, b| {
                dense::add_into(&mut a, &b);
                a
            },
        )
}

/// Parallel entropy (nats), matching [`DensePosterior::entropy`].
pub fn par_entropy(posterior: &DensePosterior, cfg: ParConfig) -> f64 {
    if posterior.len() < cfg.threshold {
        return posterior.entropy();
    }
    let (z, sum_plogp) = posterior
        .probs()
        .par_chunks(cfg.chunk_len.max(1))
        .map(dense::plogp_sums)
        .reduce(|| (0.0, 0.0), |(a1, b1), (a2, b2)| (a1 + a2, b1 + b2));
    dense::entropy_of(z, sum_plogp)
}

/// Parallel top-k: per-chunk bounded heaps merged on the driver, matching
/// [`DensePosterior::top_k`] (same ordering and tie-breaks).
pub fn par_top_k(posterior: &DensePosterior, k: usize, cfg: ParConfig) -> Vec<(State, f64)> {
    if posterior.len() < cfg.threshold || k == 0 {
        return posterior.top_k(k);
    }
    let chunk = cfg.chunk_len.max(1);
    let z = par_total(posterior, cfg);
    let candidates = posterior
        .probs()
        .par_chunks(chunk)
        .enumerate()
        .map(|(ci, probs)| dense::top_k_block(probs, (ci * chunk) as u64, k))
        .reduce(Vec::new, |mut a, b| {
            a.extend(b);
            a
        });
    dense::finish_top_k(candidates, k, z)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example(n: usize) -> DensePosterior {
        let risks: Vec<f64> = (0..n).map(|i| 0.02 + 0.9 * (i as f64 / n as f64)).collect();
        DensePosterior::from_risks(&risks)
    }

    fn assert_close(a: f64, b: f64) {
        assert!(
            (a - b).abs() < 1e-9 * (1.0 + a.abs() + b.abs()),
            "{a} vs {b}"
        );
    }

    const CFG: ParConfig = ParConfig {
        chunk_len: 64,
        threshold: 0,
    };

    #[test]
    fn fused_matches_serial() {
        let pool = State::from_subjects([0, 3, 7]);
        let table = [0.95, 0.5, 0.3, 0.2];
        let mut a = example(10);
        let mut b = a.clone();
        let ta = a.mul_likelihood_fused(pool, &table);
        let tb = par_mul_likelihood_fused(&mut b, pool, &table, CFG);
        assert_close(ta, tb);
        for (x, y) in a.probs().iter().zip(b.probs()) {
            assert_close(*x, *y);
        }
    }

    #[test]
    fn below_threshold_uses_serial_path() {
        let pool = State::from_subjects([1]);
        let table = [0.9, 0.2];
        let mut a = example(6);
        let cfg = ParConfig {
            chunk_len: 16,
            threshold: usize::MAX,
        };
        let t = par_mul_likelihood_fused(&mut a, pool, &table, cfg);
        assert_close(t, a.total());
    }

    #[test]
    fn total_and_scale() {
        let mut d = example(9);
        let t = par_total(&d, CFG);
        assert_close(t, d.total());
        par_scale(&mut d, 1.0 / t, CFG);
        assert_close(par_total(&d, CFG), 1.0);
    }

    #[test]
    fn marginals_match_serial() {
        let d = example(11);
        let serial = d.marginals();
        let parallel = par_marginals(&d, CFG);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_close(*a, *b);
        }
    }

    #[test]
    fn prefix_masses_match_serial() {
        let d = example(10);
        let order = [4usize, 9, 0, 2, 7, 1];
        let serial = d.prefix_negative_masses(&order);
        let parallel = par_prefix_negative_masses(&d, &order, CFG);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_close(*a, *b);
        }
    }

    #[test]
    fn lookahead_histograms_match_serial_kernel() {
        use crate::branch::{num_branches, BranchPool, LookaheadKernel};
        let d = example(10);
        let order = [4usize, 9, 0, 2, 7, 1];
        let kernel = LookaheadKernel::new(10, &order);
        let make_pool = |mask: u64| {
            let r = mask.count_ones() as usize;
            let pos: Vec<f64> = (0..=r).map(|k| 0.1 + 0.8 * k as f64 / r as f64).collect();
            let neg: Vec<f64> = pos.iter().map(|p| 1.0 - p).collect();
            BranchPool {
                mask,
                tables: [neg, pos],
            }
        };
        for pools in [
            vec![],
            vec![make_pool(0b10_0101_0001)],
            vec![make_pool(0b10_0101_0001), make_pool(0b01_0010_1010)],
        ] {
            let serial = kernel.histograms(d.probs(), 0, &pools);
            let parallel = par_lookahead_histograms(&d, &kernel, &pools, CFG);
            assert_eq!(serial.len(), parallel.len());
            assert_eq!(serial.len(), kernel.num_prefixes() * num_branches(&pools));
            for (a, b) in serial.iter().zip(&parallel) {
                assert_close(*a, *b);
            }
        }
    }

    #[test]
    fn entropy_matches_serial() {
        let d = example(10);
        assert_close(d.entropy(), par_entropy(&d, CFG));
    }

    #[test]
    fn top_k_matches_serial() {
        let d = example(10);
        for k in [0usize, 1, 5, 64, 2000] {
            let serial = d.top_k(k);
            let parallel = par_top_k(&d, k, CFG);
            assert_eq!(serial.len(), parallel.len(), "k={k}");
            for ((s1, p1), (s2, p2)) in serial.iter().zip(&parallel) {
                assert_eq!(s1, s2, "k={k}");
                assert_close(*p1, *p2);
            }
        }
    }
}
