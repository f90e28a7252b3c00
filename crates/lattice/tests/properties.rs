//! Property-based tests for the lattice substrate: passes inline vs. on
//! rayon blocks vs. sparse representation, plus order-theoretic invariants
//! of the state type.

use proptest::prelude::*;

use sbgt_lattice::iter::{all_states, subsets_of};
use sbgt_lattice::{DensePosterior, ExecMode, ParConfig, SparsePosterior, State};

const PAR: ExecMode = ExecMode::Parallel(ParConfig);

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
    fn prefix_masses_decrease(
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
    fn all_states_enumerates_lattice(n in 1usize..10) {
        prop_assert_eq!(all_states(n).count(), 1usize << n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Seventeen subjects are two 2^16-state blocks: the update, marginals,
    /// entropy and prefix masses fold the same block partials in the same
    /// order on rayon as inline.
    #[test]
    fn parallel_passes_are_the_serial_bits(
        risks in prop::collection::vec(0.001f64..0.6, 17),
        pool_bits in any::<u64>(),
        factor in 0.5f64..2.0,
        outcome_scale in 0.01f64..1.0,
    ) {
        let n = risks.len();
        let pool = State(pool_bits & State::full(n).bits());
        let table: Vec<f64> = (0..=pool.rank() as usize)
            .map(|k| outcome_scale * (k as f64 + 0.5) / (pool.rank() as f64 + 1.0))
            .collect();

        let mut serial = DensePosterior::from_risks(&risks);
        let mut parallel = serial.clone();
        let ts = serial.scale_mul_likelihood_fused(factor, pool, &table, ExecMode::Serial);
        let tp = parallel.scale_mul_likelihood_fused(factor, pool, &table, PAR);
        prop_assert_eq!(ts.to_bits(), tp.to_bits());
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        prop_assert_eq!(bits(serial.probs().to_vec()), bits(parallel.probs().to_vec()));

        prop_assert_eq!(serial.entropy().to_bits(), parallel.entropy_on(PAR).to_bits());
        prop_assert_eq!(bits(serial.marginals()), bits(parallel.marginals_on(PAR)));
        let order: Vec<usize> = (0..n).rev().collect();
        prop_assert_eq!(
            bits(serial.prefix_negative_masses(&order)),
            bits(parallel.prefix_negative_masses_on(&order, PAR))
        );
    }
}

// --- SIMD kernels: dispatched vs scalar reference, bit-for-bit ---

use sbgt_lattice::dense::{first_pos, first_pos_histogram, order_tables, scale_mul_table_block};
use sbgt_lattice::simd::{
    add_assign_block, add_assign_block_scalar, fused_update_block, fused_update_block_scalar,
    lookahead_double_block, lookahead_double_block_scalar, marginal_sums, marginal_sums_scalar,
    mul_table_block, mul_table_block_scalar, scale_marginal_sums, scale_marginal_sums_scalar,
};
use sbgt_lattice::LookaheadKernel;

/// Deterministic pseudo-random values in `[0, 1)`, every `zero_every`-th
/// one an exact zero.
fn masses(len: usize, seed: u64, zero_every: usize) -> Vec<f64> {
    let mut x = seed | 1;
    (0..len)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if i % zero_every == 0 {
                0.0
            } else {
                (x >> 11) as f64 / (1u64 << 53) as f64
            }
        })
        .collect()
}

fn assert_bits(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
    }
}

/// The subject-lane marginal sums and their scaling form are bit-for-bit
/// the scalar reference at every cohort size the dense arm runs — n not a
/// multiple of 4, n past 16 (lanes past the low byte), n = 0 — on blocks
/// with misaligned bases, ragged lengths, zero masses and accumulators
/// that already hold a partial; and the scaling form is bit-for-bit a
/// scale pass followed by `marginal_sums`.
#[test]
fn simd_marginal_sums_are_bit_identical_to_scalar() {
    let factor = 1.0 / 0.737;
    for n in 0..=22usize {
        let states = 1usize << n;
        let len = states.min(700);
        for (k, base) in [0, ((states - len) / 3) | 1, states - len]
            .into_iter()
            .filter(|&b| b + len <= states)
            .enumerate()
        {
            let seed = (n * 3 + k) as u64;
            let probs = masses(len, seed, 3 + k);
            let acc0 = masses(n, seed + 99, 4);
            let what = format!("n {n} base {base}");
            let base = base as u64;

            let (mut a, mut b) = (acc0.clone(), acc0.clone());
            let ta = marginal_sums(&probs, base, &mut a);
            let tb = marginal_sums_scalar(&probs, base, &mut b);
            assert_eq!(ta.to_bits(), tb.to_bits(), "{what}: total");
            assert_bits(&a, &b, &what);

            let (mut pa, mut pb) = (probs.clone(), probs.clone());
            let (mut a, mut b) = (acc0.clone(), acc0.clone());
            let ta = scale_marginal_sums(&mut pa, base, factor, &mut a);
            let tb = scale_marginal_sums_scalar(&mut pb, base, factor, &mut b);
            assert_eq!(ta.to_bits(), tb.to_bits(), "{what}: scaled total");
            assert_bits(&pa, &pb, &format!("{what} scaled values"));
            assert_bits(&a, &b, &format!("{what} scaled sums"));

            let mut two_pass = probs.clone();
            for p in &mut two_pass {
                *p *= factor;
            }
            let mut c = acc0.clone();
            let tc = marginal_sums(&two_pass, base, &mut c);
            assert_eq!(
                ta.to_bits(),
                tc.to_bits(),
                "{what}: fused vs two-pass total"
            );
            assert_bits(&pa, &two_pass, &format!("{what} fused vs two-pass values"));
            assert_bits(&a, &c, &format!("{what} fused vs two-pass sums"));
        }
    }
}

/// A pseudo-random ordering of a pseudo-random, possibly empty, subset of
/// `n` subjects.
fn seeded_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut s = seed | 1;
    for i in (1..n).rev() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        order.swap(i, (s >> 33) as usize % (i + 1));
    }
    order.truncate(seed as usize % (n + 1));
    order
}

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

    /// The update's blocked-popcount body is bit for bit the per-state
    /// `count_ones` loop it replaced (kept here as the reference), at any
    /// base, mask and scale factor.
    #[test]
    fn update_block_is_the_per_state_count_ones_loop(
        probs in prop::collection::vec(0.0f64..1.0, 1..700),
        base in 0u64..(1 << 20),
        mask_bits in any::<u64>(),
        factor in 0.01f64..4.0,
        scale in 0.01f64..1.0,
    ) {
        let mask = mask_bits & ((1 << 21) - 1);
        let table = sim_table(mask.count_ones(), scale);
        let mut want = probs.clone();
        let mut want_total = 0.0;
        for (off, p) in want.iter_mut().enumerate() {
            let k = ((base + off as u64) & mask).count_ones() as usize;
            *p = *p * factor * table[k];
            want_total += *p;
        }
        let mut got = probs;
        let total = scale_mul_table_block(&mut got, base, factor, mask, &table);
        prop_assert_eq!(total.to_bits(), want_total.to_bits());
        for (x, y) in got.iter().zip(&want) {
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

    /// The run-hoisted first-positive histogram is bit-for-bit the
    /// per-state `first_pos` loop, on misaligned blocks of lattices up to
    /// three table lanes wide and over partial orders.
    #[test]
    fn first_pos_histogram_matches_per_state_loop(
        n in 0usize..=20,
        order_seed in any::<u64>(),
        base_frac in 0.0f64..1.0,
        probs in prop::collection::vec(0.0f64..1.0, 1..900),
    ) {
        let states = 1usize << n;
        let probs = &probs[..probs.len().min(states)];
        let base = ((states - probs.len()) as f64 * base_frac) as u64;
        let order = seeded_order(n, order_seed);
        let tables = order_tables(n, &order);
        let mut hoisted = vec![0.0f64; order.len() + 1];
        first_pos_histogram(&tables, probs, base, &mut hoisted);
        let mut per_state = vec![0.0f64; order.len() + 1];
        for (off, &p) in probs.iter().enumerate() {
            per_state[first_pos(&tables, base + off as u64) as usize] += p;
        }
        for (x, y) in hoisted.iter().zip(&per_state) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The recurrence-built order tables equal the set-bit loop: each byte's
    /// entry is the least ordering position among its subjects, `m` when
    /// none is ordered.
    #[test]
    fn order_tables_match_set_bit_loop(n in 0usize..=30, order_seed in any::<u64>()) {
        let order = seeded_order(n, order_seed);
        let m = order.len() as u32;
        let mut pos_of = vec![m; n];
        for (k, &subj) in order.iter().enumerate() {
            pos_of[subj] = k as u32;
        }
        let tables = order_tables(n, &order);
        prop_assert_eq!(tables.len(), n.div_ceil(8));
        for (lane, table) in tables.iter().enumerate() {
            for (byte, &entry) in table.iter().enumerate() {
                let want = (0..8)
                    .filter(|b| byte >> b & 1 == 1 && lane * 8 + b < n)
                    .map(|b| pos_of[lane * 8 + b])
                    .fold(m, u32::min);
                prop_assert_eq!(entry, want);
            }
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
