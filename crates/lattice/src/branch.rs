//! Branch-fused look-ahead selection kernel.
//!
//! Look-ahead stage selection scores prefix-pool candidates by their
//! *expected* halving distance over the `2^j` outcome branches of the `j`
//! pools already committed to the stage. The obvious implementation
//! materializes one posterior per branch (clone + full Bayesian update —
//! `O(2^j · 2^N)` allocation and traffic per greedy step). This module is
//! the fused alternative: for each lattice state, the likelihood weight of
//! every outcome branch is the product of the committed pools' outcome
//! likelihoods at that state, so **one traversal of the unnormalized prior
//! posterior** accumulates all `2^j` branch-weighted first-positive
//! histograms at once. No branch posterior ever exists in memory.
//!
//! Per state the kernel needs `j` pool popcounts (blocked: the high-bit
//! popcount is hoisted per 256-aligned run and the low byte comes from a
//! 256-entry table, exactly like the update kernels), one
//! first-positive lookup (byte-lane tables), and `2^{j+1} − 2` multiplies
//! (iterative doubling over the branch products). The output is a
//! `(m + 1) × 2^j` histogram — `m + 1` first-positive rows, branch-minor —
//! that the driver suffix-sums into per-branch all-prefix negative masses.
//! Memory per task is `O(m · 2^j)`, independent of `2^N`.
//!
//! The kernel takes plain likelihood tables rather than a response model,
//! so it is shared verbatim by the in-memory path (once per block,
//! [`crate::DensePosterior::lookahead_histograms`]) and the engine-sharded
//! aggregate stage in the core crate.

use crate::dense::{first_pos, order_tables};

/// A pool committed to the current look-ahead stage, in the form the fused
/// kernel consumes: its bitmask plus the likelihood tables of both assay
/// outcomes (`tables[outcome as usize][k]` = likelihood of the outcome
/// given `k` positives in the pool).
#[derive(Debug, Clone)]
pub struct BranchPool {
    /// The pool's subject bitmask.
    pub mask: u64,
    /// `[negative, positive]` outcome likelihood tables, each of length
    /// `popcount(mask) + 1`.
    pub tables: [Vec<f64>; 2],
}

/// Number of outcome branches spanned by `pools` (`2^j`).
pub fn num_branches(pools: &[BranchPool]) -> usize {
    1usize << pools.len()
}

/// Popcount of `i & mask` for every low-byte value `i` — the table half of
/// the blocked popcount shared with the update kernels.
pub fn low_byte_popcounts(mask: u64) -> [u8; 256] {
    let m = (mask & 0xFF) as usize;
    let mut t = [0u8; 256];
    for (i, e) in t.iter_mut().enumerate() {
        *e = (i & m).count_ones() as u8;
    }
    t
}

/// Precomputed per-ordering state of the fused look-ahead kernel: the
/// first-positive byte-lane tables of a candidate subject ordering.
///
/// Build once per greedy stage (the ordering is fixed for the stage), then
/// call [`LookaheadKernel::histograms`] once per greedy step with the
/// pools committed so far — over a block of the in-memory posterior or an
/// engine partition.
#[derive(Debug)]
pub struct LookaheadKernel {
    first_tables: Vec<[u32; 256]>,
    m: usize,
}

impl LookaheadKernel {
    /// Prepare the kernel for a candidate ordering over `n` subjects.
    ///
    /// # Panics
    /// Panics if `order` contains a duplicate or an index `>= n` (matching
    /// [`crate::DensePosterior::prefix_negative_masses`]).
    pub fn new(n: usize, order: &[usize]) -> Self {
        LookaheadKernel {
            first_tables: order_tables(n, order),
            m: order.len(),
        }
    }

    /// Number of first-positive rows in the histogram (`order.len() + 1`).
    pub fn num_prefixes(&self) -> usize {
        self.m + 1
    }

    /// Borrow the first-positive byte-lane tables (shared with the fused
    /// SIMD superstage in [`crate::simd`]).
    pub(crate) fn first_tables(&self) -> &[[u32; 256]] {
        &self.first_tables
    }

    /// Accumulate the branch-weighted first-positive histograms of one
    /// contiguous slice of posterior mass.
    ///
    /// `probs[off]` is the (unnormalized) mass of global state
    /// `base + off`. Returns `hist` of length `(m + 1) · 2^j` laid out
    /// row-major by first-positive position with the branch index minor:
    /// `hist[first · 2^j + b]` sums `π(s) · L_b(s)` over the slice's states
    /// with first positive `first`, where `L_b(s)` is the product of each
    /// committed pool's branch-`b` outcome likelihood at `s`. Branch bit
    /// convention: the earliest committed pool owns the most significant
    /// bit (iterative doubling order); only the sum over branches is ever
    /// order-sensitive, and callers index branches uniformly.
    ///
    /// With no committed pools this degenerates to the plain first-positive
    /// histogram of the prefix-halving kernel.
    pub fn histograms(&self, probs: &[f64], base: u64, pools: &[BranchPool]) -> Vec<f64> {
        let nb = num_branches(pools);
        let mut hist = vec![0.0f64; self.num_prefixes() * nb];
        let lo: Vec<[u8; 256]> = pools.iter().map(|p| low_byte_popcounts(p.mask)).collect();
        let hi_masks: Vec<u64> = pools.iter().map(|p| p.mask & !0xFF).collect();
        let mut k_hi = vec![0usize; pools.len()];
        let mut prod = vec![0.0f64; nb];
        let len = probs.len();
        let mut off = 0usize;
        while off < len {
            // Within a 256-aligned run of global indices every pool's
            // high-bit popcount is constant — hoist them all.
            let state = base + off as u64;
            for (k, &hm) in k_hi.iter_mut().zip(&hi_masks) {
                *k = (state & hm).count_ones() as usize;
            }
            let run = ((256 - (state & 0xFF)) as usize).min(len - off);
            for (d, &p) in probs[off..off + run].iter().enumerate() {
                let s = base + (off + d) as u64;
                let byte = (s & 0xFF) as usize;
                prod[0] = p;
                let mut cur = 1usize;
                for (i, pool) in pools.iter().enumerate() {
                    let k = k_hi[i] + lo[i][byte] as usize;
                    let neg = pool.tables[0][k];
                    let pos = pool.tables[1][k];
                    crate::simd::lookahead_double_block(&mut prod, cur, neg, pos);
                    cur <<= 1;
                }
                let row = first_pos(&self.first_tables, s) as usize * nb;
                crate::simd::add_assign_block(&mut hist[row..row + nb], &prod);
            }
            off += run;
        }
        hist
    }
}

/// Suffix-sum a `(rows) × nb` first-positive histogram down its rows:
/// `masses[k · nb + b] = Σ_{first ≥ k} hist[first · nb + b]` — branch `b`'s
/// unnormalized negative mass for every prefix pool (`masses[b]` at `k = 0`
/// is branch `b`'s total mass).
pub fn suffix_sum_rows(hist: &[f64], nb: usize) -> Vec<f64> {
    assert!(nb >= 1 && hist.len().is_multiple_of(nb), "ragged histogram");
    let rows = hist.len() / nb;
    let mut masses = vec![0.0f64; hist.len()];
    let mut running = vec![0.0f64; nb];
    for k in (0..rows).rev() {
        for b in 0..nb {
            running[b] += hist[k * nb + b];
            masses[k * nb + b] = running[b];
        }
    }
    masses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DensePosterior;
    use crate::state::State;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12 * (1.0 + a.abs() + b.abs())
    }

    /// Complementary two-outcome tables for a pool: a fake but valid assay.
    fn pool(mask: u64) -> BranchPool {
        let r = mask.count_ones() as usize;
        let pos: Vec<f64> = (0..=r)
            .map(|k| 0.05 + 0.9 * k as f64 / (r.max(1)) as f64)
            .collect();
        let neg: Vec<f64> = pos.iter().map(|p| 1.0 - p).collect();
        BranchPool {
            mask,
            tables: [neg, pos],
        }
    }

    #[test]
    fn no_pools_matches_prefix_histogram() {
        let d = DensePosterior::from_risks(&[0.1, 0.3, 0.2, 0.05]);
        let order = [2usize, 0, 3, 1];
        let kernel = LookaheadKernel::new(4, &order);
        let hist = kernel.histograms(d.probs(), 0, &[]);
        let masses = suffix_sum_rows(&hist, 1);
        let expected = d.prefix_negative_masses(&order);
        assert_eq!(masses.len(), expected.len());
        for (a, b) in masses.iter().zip(&expected) {
            assert!(close(*a, *b), "{a} vs {b}");
        }
    }

    #[test]
    fn branch_masses_match_materialized_branches() {
        // Ground truth: multiply the posterior through each branch's
        // likelihood product explicitly, then take prefix masses.
        let risks = [0.1, 0.25, 0.07, 0.18, 0.3];
        let d = DensePosterior::from_risks(&risks);
        let order = [4usize, 1, 0, 3, 2];
        let pools = [pool(0b10011), pool(0b01100)];
        let kernel = LookaheadKernel::new(5, &order);
        let hist = kernel.histograms(d.probs(), 0, &pools);
        let nb = num_branches(&pools);
        assert_eq!(nb, 4);
        let masses = suffix_sum_rows(&hist, nb);

        for b in 0..nb {
            // Earliest pool owns the most significant branch bit.
            let outcomes = [(b >> 1) & 1, b & 1];
            let mut branched = d.clone();
            for (pl, &y) in pools.iter().zip(&outcomes) {
                let table = &pl.tables[y];
                branched.mul_likelihood(State(pl.mask), table);
            }
            let expected = branched.prefix_negative_masses(&order);
            for (k, e) in expected.iter().enumerate() {
                let got = masses[k * nb + b];
                assert!(close(got, *e), "branch {b} prefix {k}: {got} vs {e}");
            }
        }
    }

    #[test]
    fn sliced_traversal_matches_whole() {
        // Splitting the state range into arbitrary contiguous slices and
        // summing the per-slice histograms must equal the one-shot pass —
        // the property the sharded and chunked callers rely on.
        let risks = [0.2, 0.05, 0.33, 0.11, 0.08, 0.27];
        let d = DensePosterior::from_risks(&risks);
        let order = [0usize, 5, 2, 4];
        let pools = [pool(0b100101), pool(0b011010), pool(0b000111)];
        let kernel = LookaheadKernel::new(6, &order);
        let whole = kernel.histograms(d.probs(), 0, &pools);

        let cuts = [0usize, 7, 19, 40, 64];
        let mut summed = vec![0.0f64; whole.len()];
        for w in cuts.windows(2) {
            let part = kernel.histograms(&d.probs()[w[0]..w[1]], w[0] as u64, &pools);
            for (s, p) in summed.iter_mut().zip(&part) {
                *s += p;
            }
        }
        for (a, b) in whole.iter().zip(&summed) {
            assert!(close(*a, *b), "{a} vs {b}");
        }
    }

    #[test]
    fn complementary_tables_preserve_total_mass() {
        // When each pool's outcome tables sum to 1, the branch products of
        // a state sum to the state's mass — the identity that lets the
        // driver reuse the step-0 total as the branch-weight normalizer.
        let d = DensePosterior::from_risks(&[0.15, 0.3, 0.22]);
        let order = [1usize, 0, 2];
        let pools = [pool(0b101), pool(0b011)];
        let kernel = LookaheadKernel::new(3, &order);
        let hist = kernel.histograms(d.probs(), 0, &pools);
        let nb = num_branches(&pools);
        let masses = suffix_sum_rows(&hist, nb);
        let branch_total: f64 = masses[..nb].iter().sum();
        assert!(close(branch_total, d.total()));
    }

    #[test]
    fn suffix_sum_rows_small_example() {
        // rows = 3, nb = 2
        let hist = [1.0, 10.0, 2.0, 20.0, 4.0, 40.0];
        let masses = suffix_sum_rows(&hist, 2);
        assert_eq!(masses, vec![7.0, 70.0, 6.0, 60.0, 4.0, 40.0]);
    }

    #[test]
    #[should_panic(expected = "duplicate subject")]
    fn kernel_rejects_duplicate_order() {
        let _ = LookaheadKernel::new(4, &[1, 1]);
    }

    #[test]
    fn low_byte_popcounts_table() {
        let t = low_byte_popcounts(0b1010_0101);
        assert_eq!(t[0], 0);
        assert_eq!(t[0xFF], 4);
        assert_eq!(t[0b0000_0101], 2);
        // High mask bits are ignored by design.
        let t2 = low_byte_popcounts(0xFFFF_FF00);
        assert!(t2.iter().all(|&x| x == 0));
    }
}
