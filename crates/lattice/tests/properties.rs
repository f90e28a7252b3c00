//! Property-based tests for the lattice substrate: serial reference kernels
//! vs. parallel kernels vs. sparse representation, plus order-theoretic
//! invariants of the state type.

use proptest::prelude::*;

use sbgt_lattice::iter::{all_states, states_of_rank, subsets_of};
use sbgt_lattice::kernels::{
    par_entropy, par_marginals, par_mul_likelihood_fused, par_pool_negative_mass,
    par_prefix_negative_masses, ParConfig,
};
use sbgt_lattice::{DensePosterior, SparsePosterior, State};

const CFG: ParConfig = ParConfig {
    chunk_len: 37, // deliberately odd to exercise ragged chunk boundaries
    threshold: 0,
};

fn risks_strategy(max_n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.001f64..0.999, 1..=max_n)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9 * (1.0 + a.abs() + b.abs())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prior_total_mass_is_one(risks in risks_strategy(10)) {
        let d = DensePosterior::from_risks(&risks);
        prop_assert!(close(d.total(), 1.0));
    }

    #[test]
    fn prior_marginals_equal_risks(risks in risks_strategy(10)) {
        let d = DensePosterior::from_risks(&risks);
        let m = d.marginals();
        for (a, b) in m.iter().zip(&risks) {
            prop_assert!(close(*a, *b));
        }
    }

    #[test]
    fn parallel_kernels_agree_with_serial(
        risks in risks_strategy(9),
        pool_bits in any::<u64>(),
        outcome_scale in 0.01f64..1.0,
    ) {
        let n = risks.len();
        let pool = State(pool_bits & State::full(n).bits());
        let table: Vec<f64> = (0..=pool.rank() as usize)
            .map(|k| outcome_scale * (k as f64 + 0.5) / (pool.rank() as f64 + 1.0))
            .collect();

        let mut serial = DensePosterior::from_risks(&risks);
        let mut parallel = serial.clone();

        let ts = serial.mul_likelihood_fused(pool, &table);
        let tp = par_mul_likelihood_fused(&mut parallel, pool, &table, CFG);
        prop_assert!(close(ts, tp));
        for (a, b) in serial.probs().iter().zip(parallel.probs()) {
            prop_assert!(close(*a, *b));
        }

        prop_assert!(close(serial.entropy(), par_entropy(&parallel, CFG)));
        prop_assert!(close(
            serial.pool_negative_mass(pool),
            par_pool_negative_mass(&parallel, pool, CFG)
        ));
        for (a, b) in serial.marginals().iter().zip(par_marginals(&parallel, CFG)) {
            prop_assert!(close(*a, b));
        }
    }

    #[test]
    fn prefix_masses_agree_and_decrease(
        risks in risks_strategy(9),
        seed in any::<u64>(),
    ) {
        let n = risks.len();
        let d = DensePosterior::from_risks(&risks);
        // Pseudo-random permutation of subjects from the seed.
        let mut order: Vec<usize> = (0..n).collect();
        let mut s = seed;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let serial = d.prefix_negative_masses(&order);
        let parallel = par_prefix_negative_masses(&d, &order, CFG);
        for (a, b) in serial.iter().zip(&parallel) {
            prop_assert!(close(*a, *b));
        }
        // Monotonicity: growing the pool can only shrink the negative set.
        for w in serial.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-12);
        }
        // Agreement with per-pool scans.
        for k in 0..=n {
            let pool = State::from_subjects(order[..k].iter().copied());
            prop_assert!(close(serial[k], d.pool_negative_mass(pool)));
        }
    }

    #[test]
    fn sparse_unpruned_matches_dense_after_updates(
        risks in risks_strategy(8),
        pool_bits in any::<u64>(),
    ) {
        let n = risks.len();
        let pool = State(pool_bits & State::full(n).bits());
        let table: Vec<f64> = (0..=pool.rank() as usize).map(|k| 0.9 / (k + 1) as f64).collect();

        let mut dense = DensePosterior::from_risks(&risks);
        let mut sparse = SparsePosterior::from_dense(&dense, 0.0);
        let td = dense.mul_likelihood_fused(pool, &table);
        let ts = sparse.mul_likelihood_fused(pool, &table);
        prop_assert!(close(td, ts));
        for (a, b) in dense.marginals().iter().zip(sparse.marginals()) {
            prop_assert!(close(*a, b));
        }
    }

    #[test]
    fn pruning_error_is_bounded(risks in risks_strategy(8), eps in 1e-6f64..1e-2) {
        let dense = DensePosterior::from_risks(&risks);
        let sparse = SparsePosterior::from_dense(&dense, eps);
        // Total discarded mass is at most eps * total * #states.
        let bound = eps * dense.total() * dense.len() as f64;
        prop_assert!(sparse.pruned_mass() <= bound + 1e-12);
        prop_assert!(close(sparse.total() + sparse.pruned_mass(), dense.total()));
    }

    #[test]
    fn normalization_preserves_ratios(risks in risks_strategy(8)) {
        let mut d = DensePosterior::from_risks(&risks);
        let before0 = d.get(State::EMPTY);
        let before_last = d.get(State::full(risks.len()));
        let z = d.normalize();
        prop_assert!(close(z, 1.0)); // prior already normalized
        prop_assert!(close(d.get(State::EMPTY), before0));
        prop_assert!(close(d.get(State::full(risks.len())), before_last));
    }

    #[test]
    fn subset_iter_size(mask_bits in 0u64..256) {
        let mask = State(mask_bits);
        let count = subsets_of(mask).count();
        prop_assert_eq!(count, 1usize << mask.rank());
    }

    #[test]
    fn state_order_properties(a in 0u64..1024, b in 0u64..1024) {
        let (a, b) = (State(a), State(b));
        // meet is the greatest lower bound, join the least upper bound.
        prop_assert!(a.meet(b).is_subset_of(a));
        prop_assert!(a.meet(b).is_subset_of(b));
        prop_assert!(a.is_subset_of(a.join(b)));
        prop_assert!(b.is_subset_of(a.join(b)));
        // Absorption laws.
        prop_assert_eq!(a.meet(a.join(b)), a);
        prop_assert_eq!(a.join(a.meet(b)), a);
        // Rank is strictly monotone on strict inclusion.
        if a.is_subset_of(b) && a != b {
            prop_assert!(a.rank() < b.rank());
        }
    }

    #[test]
    fn rank_iteration_partitions_lattice(n in 1usize..10) {
        let total: usize = (0..=n).map(|k| states_of_rank(n, k).count()).sum();
        prop_assert_eq!(total, 1usize << n);
        prop_assert_eq!(all_states(n).count(), 1usize << n);
    }
}

// --- SIMD kernels: dispatched vs scalar reference, bit-for-bit ---

use sbgt_lattice::simd::{
    add_assign_block, add_assign_block_scalar, fused_update_block, fused_update_block_scalar,
    lookahead_double_block, lookahead_double_block_scalar, mul_table_block, mul_table_block_scalar,
};
use sbgt_lattice::LookaheadKernel;

/// A likelihood-like table for a pool of `rank` bits, parameterized so
/// proptest explores different value profiles.
fn sim_table(rank: u32, scale: f64) -> Vec<f64> {
    (0..=rank as usize)
        .map(|k| scale * (k as f64 + 0.5) / (rank as f64 + 1.0))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The runtime-dispatched update kernel is bit-for-bit the scalar
    /// reference over arbitrary partition slices (ragged length, misaligned
    /// base) — the SIMD contract the sharded engine relies on.
    #[test]
    fn simd_mul_table_block_is_bit_identical_to_scalar(
        probs in prop::collection::vec(0.0f64..1.0, 1..700),
        base in 0u64..4096,
        mask_bits in any::<u64>(),
        scale in 0.01f64..1.0,
    ) {
        let mask = mask_bits & 0xFFF;
        let table = sim_table(mask.count_ones(), scale);
        let mut a = probs.clone();
        let mut b = probs;
        let za = mul_table_block(&mut a, base, mask, &table);
        let zb = mul_table_block_scalar(&mut b, base, mask, &table);
        prop_assert_eq!(za.to_bits(), zb.to_bits());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The fused update+marginals+histogram superstage is bit-for-bit the
    /// scalar reference in every output (posterior, total, marginal masses,
    /// first-positive histogram).
    #[test]
    fn simd_fused_update_block_is_bit_identical_to_scalar(
        probs in prop::collection::vec(0.0f64..1.0, 1..600),
        base in 0u64..2048,
        mask_bits in any::<u64>(),
        n in 1usize..12,
        order_seed in any::<u64>(),
    ) {
        let mask = mask_bits & ((1u64 << n) - 1);
        let table = sim_table(mask.count_ones(), 0.9);
        // Pseudo-random candidate ordering over a subset of subjects.
        let mut order: Vec<usize> = (0..n).collect();
        let mut s = order_seed | 1;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s >> 33) as usize % (i + 1));
        }
        order.truncate(1 + (order_seed as usize % n));
        let kernel = LookaheadKernel::new(n, &order);

        let mut pa = probs.clone();
        let mut pb = probs;
        let mut ma = vec![0.0f64; n];
        let mut mb = vec![0.0f64; n];
        let mut ha = vec![0.0f64; kernel.num_prefixes()];
        let mut hb = vec![0.0f64; kernel.num_prefixes()];
        let sa = fused_update_block(&mut pa, base, mask, &table, &kernel, &mut ma, &mut ha);
        let sb = fused_update_block_scalar(&mut pb, base, mask, &table, &kernel, &mut mb, &mut hb);
        prop_assert_eq!(sa.to_bits(), sb.to_bits());
        for (x, y) in pa.iter().zip(&pb) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in ma.iter().zip(&mb) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in ha.iter().zip(&hb) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The look-ahead branch-product primitives are bit-for-bit the scalar
    /// reference for every doubling width and accumulate length.
    #[test]
    fn simd_lookahead_primitives_are_bit_identical_to_scalar(
        weights in prop::collection::vec(0.0f64..1.0, 1..65),
        neg in 0.0f64..1.0,
        pos in 0.0f64..1.0,
        src in prop::collection::vec(0.0f64..1.0, 1..65),
    ) {
        // Doubling: prod must hold 2*cur slots. Real callers grow the
        // product table by doubling from 1, so `cur` is always a power of
        // two — the AVX path's alignment contract. Mirror that here.
        let cur = (weights.len().div_ceil(2).max(1)).next_power_of_two();
        let mut a = weights.clone();
        a.resize(2 * cur, 0.0);
        let mut b = a.clone();
        lookahead_double_block(&mut a, cur, neg, pos);
        lookahead_double_block_scalar(&mut b, cur, neg, pos);
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }

        let mut da = weights.iter().map(|w| 1.0 - w).collect::<Vec<_>>();
        da.resize(src.len(), 0.25);
        let mut db = da.clone();
        let src = &src[..da.len().min(src.len())];
        add_assign_block(&mut da[..src.len()], src);
        add_assign_block_scalar(&mut db[..src.len()], src);
        for (x, y) in da.iter().zip(&db) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

// --- extension module: zeta/Möbius transforms ---

use sbgt_lattice::transform::{
    all_pool_negative_masses, mobius_in_place, up_set_masses, zeta_in_place,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Möbius inverts zeta on arbitrary mass vectors.
    #[test]
    fn mobius_inverts_zeta_on_arbitrary_vectors(
        probs in prop::collection::vec(0.0f64..10.0, 32..=32),
    ) {
        let n = 5;
        let mut f = probs.clone();
        zeta_in_place(&mut f, n);
        mobius_in_place(&mut f, n);
        for (a, b) in f.iter().zip(&probs) {
            prop_assert!(close(*a, *b));
        }
    }

    /// All-pool masses from the transform agree with per-pool scans, and
    /// up-set masses respect inclusion monotonicity.
    #[test]
    fn transform_masses_agree_and_are_monotone(risks in risks_strategy(7)) {
        let d = DensePosterior::from_risks(&risks);
        let n = risks.len();
        let all = all_pool_negative_masses(&d);
        for pool_bits in 0u64..(1 << n) {
            prop_assert!(close(
                all[pool_bits as usize],
                d.pool_negative_mass(State(pool_bits))
            ));
        }
        let up = up_set_masses(&d);
        // t ⊆ u  ⇒  up-set of t ⊇ up-set of u  ⇒  mass(t) >= mass(u).
        for t in 0usize..(1 << n) {
            for bit in 0..n {
                if t & (1 << bit) == 0 {
                    let u = t | (1 << bit);
                    prop_assert!(up[t] >= up[u] - 1e-12);
                }
            }
        }
    }
}
