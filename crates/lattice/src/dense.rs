//! Dense posterior over the full Boolean lattice, and the block kernels
//! every executor runs.
//!
//! `DensePosterior` stores one `f64` of (generally unnormalized) posterior
//! mass per state, indexed by the state's bitmask. Each `Θ(2^N)` pass is
//! written **once**, as a plain function over one contiguous block of the
//! lattice (`probs[off]` is the mass of state `base + off`):
//! [`scale_mul_table_block`], [`marginal_sums`], [`first_pos_histogram`],
//! [`plogp_sums`] and [`top_k_block`]. `DensePosterior` runs each through
//! [`crate::blocks`]: once per 2^16-state block, partials folded in
//! ascending block order ([`add_into`]; [`normalize_marginals`],
//! [`suffix_sums`], [`entropy_of`] and [`finish_top_k`] finish the pass),
//! so every [`ExecMode`] gives the same bits and a lattice of one block is
//! the plain whole-array loop. The engine-sharded posterior runs the same
//! kernels once per partition. The projection onto a subject subset
//! ([`DensePosterior::project`]) folds nothing: its kernel,
//! `project_block`, adds each block straight into the smaller lattice,
//! block after block, so every target sums its sources in ascending state
//! order. When the summed-out subjects have no mass, the projection keeps
//! every mass's bits and [`DensePosterior::expand`] (kernel
//! `expand_block`) undoes it: the exact sessions' contraction.
//!
//! Kernel design notes (these are the paper's constant-factor wins, not
//! incidental details):
//!
//! * A pooled test's likelihood depends on the state only through
//!   `k = |s ∩ A|`, so a multiply pass indexes a precomputed table of
//!   `|A| + 1` entries rather than calling the response model `2^N` times,
//!   and `k` is a blocked popcount: the high bits' count is hoisted once
//!   per 256-state run and the low byte indexes a 256-entry table.
//! * Marginals for all `N` subjects are accumulated in **one** pass
//!   instead of `N` separate passes, by [`crate::simd`]'s subject-lane
//!   kernel: one register lane per subject, so the per-subject adds stay
//!   in registers. [`scale_marginal_sums`] folds a normalisation into the
//!   same traversal.
//! * The halving search needs the pool-negative mass of every *prefix pool*
//!   of a subject ordering; [`DensePosterior::prefix_negative_masses`]
//!   computes all `N+1` of them in one traversal via a first-positive-
//!   position histogram, instead of one `O(2^N)` scan per candidate.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::blocks::{ExecMode, BLOCK_BITS, BLOCK_LEN};
use crate::branch::{low_byte_popcounts, BranchPool, LookaheadKernel};
pub use crate::simd::{marginal_sums, scale_marginal_sums};
use crate::state::State;
use crate::MAX_SUBJECTS;

/// Validate a subject ordering over `n` subjects and build its per-byte
/// first-position lookup tables for the all-prefix mass kernels.
///
/// `lanes[l][byte]` is the minimum ordering position over the set bits of
/// `byte` interpreted as subjects `8l .. 8l+7`, with `m = order.len()` when
/// none is ordered. A state's first positive position is then `min` over
/// its byte lanes ([`first_pos`]) — four table lookups for `N ≤ 32` instead
/// of a set-bit loop, which makes the fused selection pass run at copy
/// speed.
///
/// # Panics
/// Panics if `order` contains a duplicate or an index `>= n`.
pub fn order_tables(n: usize, order: &[usize]) -> Vec<[u32; 256]> {
    let m = order.len() as u32;
    let pos_of = order_positions(n, order);
    let mut tables = vec![[m; 256]; n.div_ceil(8)];
    for (lane, table) in tables.iter_mut().enumerate() {
        // A byte's entry is its lowest set bit's position folded into the
        // entry of the byte without that bit: O(256) per lane.
        for byte in 1..256usize {
            let subj = lane * 8 + byte.trailing_zeros() as usize;
            let pos = pos_of.get(subj).map_or(m, |&p| p.min(m));
            table[byte] = table[byte & (byte - 1)].min(pos);
        }
    }
    tables
}

/// Each subject's position in a validated ordering over `n` subjects
/// (`u32::MAX` when it is not ordered).
///
/// # Panics
/// Panics if `order` contains a duplicate or an index `>= n`.
fn order_positions(n: usize, order: &[usize]) -> Vec<u32> {
    let mut pos_of = vec![u32::MAX; n];
    for (k, &subj) in order.iter().enumerate() {
        assert!(subj < n, "subject {subj} out of range");
        assert!(
            pos_of[subj] == u32::MAX,
            "duplicate subject {subj} in order"
        );
        pos_of[subj] = k as u32;
    }
    pos_of
}

/// The subjects of an ordering over `n` subjects as a bitmask: the `keep`
/// of [`DensePosterior::project`] that sums out every unordered subject.
///
/// # Panics
/// Panics if `order` contains a duplicate or an index `>= n`, with the
/// messages of [`order_tables`].
pub fn order_mask(n: usize, order: &[usize]) -> u64 {
    order_positions(n, order);
    order.iter().fold(0, |mask, &subj| mask | 1 << subj)
}

/// Parallel bit extract: the bits of `x` at the set positions of `mask`,
/// packed into the low bits in ascending position order. It renumbers a
/// state of a lattice into the lattice of the subjects in `mask`.
#[inline]
pub fn pext(x: u64, mask: u64) -> u64 {
    let mut out = 0u64;
    let mut rest = mask;
    let mut bit = 0u32;
    while rest != 0 {
        if x & rest & rest.wrapping_neg() != 0 {
            out |= 1 << bit;
        }
        bit += 1;
        rest &= rest - 1;
    }
    out
}

/// Parallel bit deposit, the inverse of [`pext`] on `mask`'s subjects: the
/// low bits of `x`, in ascending order, placed at the set positions of
/// `mask`. Monotone in `x`, so it keeps the order of states and pools.
#[inline]
pub fn pdep(x: u64, mask: u64) -> u64 {
    let mut out = 0u64;
    let mut rest = mask;
    let mut bit = 0u32;
    while rest != 0 {
        let low = rest & rest.wrapping_neg();
        if x >> bit & 1 != 0 {
            out |= low;
        }
        bit += 1;
        rest &= rest - 1;
    }
    out
}

/// Block kernel of the projection onto `keep`: `out[pext(s, keep)] += π(s)`
/// over one block, in ascending state order. The kept bits above the low
/// byte are packed once per 256-state run and the low byte's come from a
/// 256-entry table, as the update kernels split their popcount.
pub fn project_block(probs: &[f64], base: u64, keep: u64, out: &mut [f64]) {
    let mut lo = [0u8; 256];
    for (byte, t) in lo.iter_mut().enumerate() {
        *t = pext(byte as u64, keep & 0xFF) as u8;
    }
    let lo_bits = (keep & 0xFF).count_ones();
    let mut off = 0usize;
    while off < probs.len() {
        let state = base + off as u64;
        let hi = (pext(state >> 8, keep >> 8) << lo_bits) as usize;
        let low = (state & 0xFF) as usize;
        let run = (256 - low).min(probs.len() - off);
        for (&p, &t) in probs[off..off + run].iter().zip(&lo[low..]) {
            out[hi | t as usize] += p;
        }
        off += run;
    }
}

/// The inverse of a projection onto `keep` whose summed-out subjects had no
/// mass: `out[pdep(t, keep) - first] = probs[o]` for every `t = base + o`,
/// where `first = pdep(base, keep)` is the state `out[0]` holds. States of
/// `out` that no source reaches keep their value.
pub fn expand_block(probs: &[f64], base: u64, keep: u64, out: &mut [f64]) {
    let first = pdep(base, keep);
    for (t, &p) in (base..).zip(probs) {
        out[(pdep(t, keep) - first) as usize] = p;
    }
}

/// First positive position of `state` under [`order_tables`]' tables.
#[inline]
pub fn first_pos(tables: &[[u32; 256]], state: u64) -> u32 {
    let mut best = u32::MAX;
    let mut bits = state;
    for table in tables {
        let byte = (bits & 0xFF) as usize;
        let v = table[byte];
        if v < best {
            best = v;
        }
        bits >>= 8;
        if bits == 0 {
            break;
        }
    }
    if best == u32::MAX {
        // Only reachable when `tables` is empty (a zero-subject cohort,
        // where the order is necessarily empty and every position is 0);
        // lane 0 otherwise always yields a value ≤ m.
        0
    } else {
        best
    }
}

/// First-positive position restricted to state bits ≥ 8 (constant within a
/// 256-aligned run); `m` when none apply.
#[inline]
pub(crate) fn hi_first_pos(tables: &[[u32; 256]], state: u64, m: u32) -> u32 {
    let mut best = m;
    for (l, t) in tables.iter().enumerate().skip(1) {
        let byte = ((state >> (8 * l)) & 0xFF) as usize;
        let v = t[byte];
        if v < best {
            best = v;
        }
    }
    best
}

/// First-positive position of a state given its low byte and the hoisted
/// high-bit minimum.
#[inline]
pub(crate) fn low_first_pos(tables: &[[u32; 256]], byte: usize, hi_first: u32) -> u32 {
    match tables.first() {
        Some(t) => t[byte].min(hi_first),
        None => hi_first,
    }
}

/// Block kernel: `hist[first_pos(s)] += π(s)` over one block, where
/// `hist` has one row per prefix (`order.len() + 1`). The lanes above the
/// low byte are looked up once per 256-aligned run; the adds stay in
/// ascending state order.
pub fn first_pos_histogram(tables: &[[u32; 256]], probs: &[f64], base: u64, hist: &mut [f64]) {
    let m = (hist.len() - 1) as u32;
    let mut off = 0usize;
    while off < probs.len() {
        let state = base + off as u64;
        let hi_first = hi_first_pos(tables, state, m);
        let low = (state & 0xFF) as usize;
        let run = (256 - low).min(probs.len() - off);
        for (byte, &p) in (low..).zip(&probs[off..off + run]) {
            hist[low_first_pos(tables, byte, hi_first) as usize] += p;
        }
        off += run;
    }
}

/// Turn a first-positive histogram into all-prefix negative masses:
/// `masses[k] = Σ_{first ≥ k} hist[first]`.
pub fn suffix_sums(hist: &[f64]) -> Vec<f64> {
    let mut masses = vec![0.0f64; hist.len()];
    let mut running = 0.0;
    for (m, &h) in masses.iter_mut().zip(hist).rev() {
        running += h;
        *m = running;
    }
    masses
}

/// Combine one block's partial into the running partial: `acc[i] += part[i]`.
/// Plain and inlinable on purpose: routing this through the SIMD
/// dispatcher once made LLVM spill `marginal_sums`' running total to the
/// stack inside the per-block closure, halving its speed.
#[inline]
pub fn add_into(acc: &mut [f64], part: &[f64]) {
    for (a, p) in acc.iter_mut().zip(part) {
        *a += p;
    }
}

/// Fold step of the vector partials: block `b`'s histogram added into the
/// running one.
fn add_vecs(mut acc: Vec<f64>, part: Vec<f64>) -> Vec<f64> {
    add_into(&mut acc, &part);
    acc
}

/// Fold step of the `(per-subject or per-rank sums, total)` partials.
fn add_sums((mut acc, total): (Vec<f64>, f64), (part, t): (Vec<f64>, f64)) -> (Vec<f64>, f64) {
    add_into(&mut acc, &part);
    (acc, total + t)
}

/// Block kernel of the update: `probs[off] = (π · factor) · table[k]` with
/// `k = |(base + off) ∩ mask|`, returning the block's new total, summed in
/// state order. `k` is a blocked popcount — the bits above the low byte
/// counted once per 256-state run, the low byte from a 256-entry table —
/// which is the per-state `count_ones` in fewer instructions, so the
/// products and the total are those of the per-state loop, bit for bit.
pub fn scale_mul_table_block(
    probs: &mut [f64],
    base: u64,
    factor: f64,
    mask: u64,
    table: &[f64],
) -> f64 {
    let lo = low_byte_popcounts(mask);
    let hi_mask = mask & !0xFF;
    let mut total = 0.0;
    let mut off = 0usize;
    while off < probs.len() {
        let state = base + off as u64;
        let k_hi = (state & hi_mask).count_ones() as usize;
        let low = (state & 0xFF) as usize;
        let run = (256 - low).min(probs.len() - off);
        let table = &table[k_hi..];
        for (p, &k_lo) in probs[off..off + run].iter_mut().zip(&lo[low..]) {
            *p = *p * factor * table[k_lo as usize];
            total += *p;
        }
        off += run;
    }
    total
}

/// Divide accumulated marginal masses by the total (left at zero when the
/// total is not positive).
pub fn normalize_marginals(acc: &mut [f64], total: f64) {
    if total > 0.0 {
        for a in acc {
            *a /= total;
        }
    }
}

/// Block kernel: `(Σ p, Σ_{p > 0} p · ln p)` over one block.
pub fn plogp_sums(probs: &[f64]) -> (f64, f64) {
    let (mut z, mut s) = (0.0, 0.0);
    for &p in probs {
        z += p;
        if p > 0.0 {
            s += p * p.ln();
        }
    }
    (z, s)
}

/// Shannon entropy (nats) from [`plogp_sums`]' totals; 0 for a degenerate
/// (zero or non-finite) total.
pub fn entropy_of(z: f64, sum_plogp: f64) -> f64 {
    if !(z.is_finite() && z > 0.0) {
        return 0.0;
    }
    z.ln() - sum_plogp / z
}

/// Heap entry of the top-k kernels: mass ascending (so the heap root is
/// the smallest kept entry), then index descending, so that equal masses
/// prefer keeping the smaller index.
#[derive(PartialEq)]
struct Entry(f64, u64);
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(other.1.cmp(&self.1))
    }
}

/// Block kernel: the `k` highest-mass `(state, mass)` pairs of one block,
/// unordered.
pub fn top_k_block(probs: &[f64], base: u64, k: usize) -> Vec<(u64, f64)> {
    let mut heap: BinaryHeap<Reverse<Entry>> = BinaryHeap::with_capacity(k + 1);
    for (off, &p) in probs.iter().enumerate() {
        heap.push(Reverse(Entry(p, base + off as u64)));
        if heap.len() > k {
            heap.pop();
        }
    }
    heap.into_iter()
        .map(|Reverse(Entry(p, idx))| (idx, p))
        .collect()
}

/// Finish a top-k from block candidates: normalize by `z`, sort descending
/// (ties by state index, ascending) and keep the first `k`.
pub fn finish_top_k(candidates: Vec<(u64, f64)>, k: usize, z: f64) -> Vec<(State, f64)> {
    let mut out: Vec<(State, f64)> = candidates
        .into_iter()
        .map(|(idx, p)| (State(idx), if z > 0.0 { p / z } else { 0.0 }))
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.bits().cmp(&b.0.bits())));
    out.truncate(k);
    out
}

/// Dense (one slot per lattice state) posterior mass vector.
#[derive(Debug, Clone, PartialEq)]
pub struct DensePosterior {
    n_subjects: usize,
    probs: Vec<f64>,
}

impl DensePosterior {
    /// Uniform mass over all `2^n` states.
    pub fn new_uniform(n: usize) -> Self {
        let len = crate::num_states(n);
        DensePosterior {
            n_subjects: n,
            probs: vec![1.0 / len as f64; len],
        }
    }

    /// Build from an arbitrary mass function.
    pub fn from_fn(n: usize, f: impl Fn(State) -> f64) -> Self {
        let len = crate::num_states(n);
        let probs = (0..len as u64).map(|i| f(State(i))).collect();
        DensePosterior {
            n_subjects: n,
            probs,
        }
    }

    /// Independent-risk prior: `π(s) = ∏_{i∈s} p_i · ∏_{i∉s} (1 − p_i)`.
    ///
    /// Built by in-place doubling in `O(2^N)` total work: after step `i` the
    /// first `2^(i+1)` slots hold the joint mass of the first `i+1` subjects.
    ///
    /// ```
    /// use sbgt_lattice::{DensePosterior, State};
    /// let prior = DensePosterior::from_risks(&[0.1, 0.3]);
    /// assert!((prior.get(State::EMPTY) - 0.9 * 0.7).abs() < 1e-12);
    /// assert!((prior.total() - 1.0).abs() < 1e-12);
    /// assert_eq!(prior.marginals().len(), 2);
    /// ```
    ///
    /// # Panics
    /// Panics if any risk is outside `[0, 1]` or `risks.len() > MAX_SUBJECTS`.
    pub fn from_risks(risks: &[f64]) -> Self {
        let n = risks.len();
        assert!(n <= MAX_SUBJECTS, "too many subjects");
        for (i, &p) in risks.iter().enumerate() {
            assert!(
                (0.0..=1.0).contains(&p) && p.is_finite(),
                "risk {i} = {p} outside [0,1]"
            );
        }
        let len = crate::num_states(n);
        let mut probs = vec![0.0; len];
        probs[0] = 1.0;
        let mut filled = 1usize;
        for &p in risks {
            for j in 0..filled {
                let base = probs[j];
                probs[j + filled] = base * p;
                probs[j] = base * (1.0 - p);
            }
            filled <<= 1;
        }
        debug_assert_eq!(filled, len);
        DensePosterior {
            n_subjects: n,
            probs,
        }
    }

    /// Build from a raw mass vector (length must be `2^n`).
    pub fn from_probs(n: usize, probs: Vec<f64>) -> Self {
        assert_eq!(probs.len(), crate::num_states(n), "length must be 2^n");
        DensePosterior {
            n_subjects: n,
            probs,
        }
    }

    /// Cohort size `N`.
    #[inline]
    pub fn n_subjects(&self) -> usize {
        self.n_subjects
    }

    /// Number of states (`2^N`).
    #[inline]
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Always false: a lattice has at least the empty state.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Mass of one state.
    #[inline]
    pub fn get(&self, s: State) -> f64 {
        self.probs[s.index()]
    }

    /// Borrow the raw mass vector (state index = slot index).
    #[inline]
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Mutably borrow the raw mass vector.
    #[inline]
    pub fn probs_mut(&mut self) -> &mut [f64] {
        &mut self.probs
    }

    /// Total mass.
    pub fn total(&self) -> f64 {
        self.total_on(ExecMode::Serial)
    }

    /// [`Self::total`], with the blocks run where `exec` says.
    pub fn total_on(&self, exec: ExecMode) -> f64 {
        exec.fold(
            &self.probs,
            |block, _| block.iter().sum::<f64>(),
            |a, b| a + b,
        )
    }

    /// Normalize to total mass 1; returns the normalizing constant `Z`.
    /// Returns `None` (leaving the vector untouched) when the total is zero,
    /// negative, or not finite — the degenerate case a caller must handle
    /// (e.g. an impossible observation under a truncated sparse posterior).
    pub fn try_normalize(&mut self) -> Option<f64> {
        let z = self.total();
        if !(z.is_finite() && z > 0.0) {
            return None;
        }
        let inv = 1.0 / z;
        for p in &mut self.probs {
            *p *= inv;
        }
        Some(z)
    }

    /// Normalize to total mass 1; returns `Z`.
    ///
    /// # Panics
    /// Panics on degenerate total mass; see [`Self::try_normalize`].
    pub fn normalize(&mut self) -> f64 {
        self.try_normalize()
            .expect("posterior mass is zero or non-finite; observation impossible under prior")
    }

    /// Multiply every state's mass by `table[|s ∩ pool|]`.
    ///
    /// `table` must have `pool.rank() + 1` entries: the likelihood of the
    /// observed outcome given `k` positives in the pool.
    pub fn mul_likelihood(&mut self, pool: State, table: &[f64]) {
        assert!(
            table.len() > pool.rank() as usize,
            "likelihood table too short: need {} entries",
            pool.rank() + 1
        );
        let mask = pool.bits();
        for (idx, p) in self.probs.iter_mut().enumerate() {
            let k = (idx as u64 & mask).count_ones() as usize;
            *p *= table[k];
        }
    }

    /// Fused multiply + total: one traversal, returns the new total mass
    /// (the Bayesian evidence of the observation). This is the fusion of
    /// Spark stages the SBGT framework performs to halve lattice traffic.
    pub fn mul_likelihood_fused(&mut self, pool: State, table: &[f64]) -> f64 {
        self.scale_mul_likelihood_fused(1.0, pool, table, ExecMode::Serial)
    }

    /// [`Self::mul_likelihood_fused`] of the masses scaled by `factor`, in
    /// the same traversal: each mass becomes `(π(s) · factor) · table[k]`,
    /// rounded exactly as a scale pass followed by the multiply.
    pub fn scale_mul_likelihood_fused(
        &mut self,
        factor: f64,
        pool: State,
        table: &[f64],
        exec: ExecMode,
    ) -> f64 {
        assert!(table.len() > pool.rank() as usize);
        let mask = pool.bits();
        exec.fold_mut(
            &mut self.probs,
            |block, base| scale_mul_table_block(block, base, factor, mask, table),
            |a, b| a + b,
        )
    }

    /// Posterior marginal `P(subject i positive)` for every subject, plus
    /// normalization by the current total, in a single traversal.
    ///
    /// ```
    /// use sbgt_lattice::DensePosterior;
    /// let prior = DensePosterior::from_risks(&[0.25, 0.5]);
    /// let m = prior.marginals();
    /// assert!((m[0] - 0.25).abs() < 1e-12 && (m[1] - 0.5).abs() < 1e-12);
    /// ```
    ///
    /// Returns the zero vector for a posterior with zero total mass.
    pub fn marginals(&self) -> Vec<f64> {
        self.marginals_on(ExecMode::Serial)
    }

    /// [`Self::marginals`], with the blocks run where `exec` says.
    pub fn marginals_on(&self, exec: ExecMode) -> Vec<f64> {
        let (mut acc, total) = self.marginal_masses_on(exec);
        normalize_marginals(&mut acc, total);
        acc
    }

    /// The unnormalised marginals: every subject's positive mass and the
    /// total, the sums [`Self::marginals_on`] divides.
    pub fn marginal_masses_on(&self, exec: ExecMode) -> (Vec<f64>, f64) {
        let n = self.n_subjects;
        exec.fold(
            &self.probs,
            |block, base| {
                let mut acc = vec![0.0f64; n];
                let total = marginal_sums(block, base, &mut acc);
                (acc, total)
            },
            add_sums,
        )
    }

    /// Scale every mass by `factor` and return the marginals of the result
    /// — bit-for-bit a scale pass followed by [`Self::marginals`] — in one
    /// traversal.
    pub fn scale_marginals(&mut self, factor: f64, exec: ExecMode) -> Vec<f64> {
        let (mut acc, total) = self.scale_marginal_masses(factor, exec);
        normalize_marginals(&mut acc, total);
        acc
    }

    /// [`Self::scale_marginals`] before the division: the positive masses
    /// and the total of the scaled posterior.
    pub fn scale_marginal_masses(&mut self, factor: f64, exec: ExecMode) -> (Vec<f64>, f64) {
        let n = self.n_subjects;
        exec.fold_mut(
            &mut self.probs,
            |block, base| {
                let mut acc = vec![0.0f64; n];
                let total = scale_marginal_sums(block, base, factor, &mut acc);
                (acc, total)
            },
            add_sums,
        )
    }

    /// Mass of the pool-negative down-set `{s : s ∩ pool = ∅}`, relative to
    /// the current total (i.e. a probability when the posterior is
    /// normalized; otherwise raw mass — see [`Self::total`]).
    pub fn pool_negative_mass(&self, pool: State) -> f64 {
        let mask = pool.bits();
        ExecMode::Serial.fold(
            &self.probs,
            |block, base| {
                (base..)
                    .zip(block)
                    .filter(|(s, _)| s & mask == 0)
                    .map(|(_, &p)| p)
                    .sum::<f64>()
            },
            |a, b| a + b,
        )
    }

    /// Pool-negative masses of **all prefix pools** of a subject ordering in
    /// one traversal.
    ///
    /// For `order = [o_0, .., o_{m-1}]`, prefix pool `A_k = {o_0, .., o_{k-1}}`
    /// (so `A_0 = ∅`). Returns `masses[k] = Σ_{s ∩ A_k = ∅} π(s)` for
    /// `k = 0..=m`.
    ///
    /// Method: for each state, find `f(s)` = smallest `k` such that `o_k`
    /// is positive in `s` (`m` if none is); then `s` contributes to exactly
    /// the prefixes `k ≤ f(s)`, so a histogram over `f` plus one suffix-sum
    /// yields every prefix mass. One pass instead of `m` passes — the
    /// test-selection speedup of the framework comes from here.
    ///
    /// # Panics
    /// Panics if `order` contains a duplicate or an index `>= n_subjects`.
    pub fn prefix_negative_masses(&self, order: &[usize]) -> Vec<f64> {
        self.prefix_negative_masses_on(order, ExecMode::Serial)
    }

    /// [`Self::prefix_negative_masses`], with the blocks run where `exec`
    /// says.
    pub fn prefix_negative_masses_on(&self, order: &[usize], exec: ExecMode) -> Vec<f64> {
        let tables = order_tables(self.n_subjects, order);
        let rows = order.len() + 1;
        let hist = exec.fold(
            &self.probs,
            |block, base| {
                let mut hist = vec![0.0f64; rows];
                first_pos_histogram(&tables, block, base, &mut hist);
                hist
            },
            add_vecs,
        );
        suffix_sums(&hist)
    }

    /// [`LookaheadKernel::histograms`] over the whole posterior: the
    /// branch-weighted first-positive histograms of the pools committed so
    /// far, one greedy look-ahead step.
    pub fn lookahead_histograms(
        &self,
        kernel: &LookaheadKernel,
        pools: &[BranchPool],
        exec: ExecMode,
    ) -> Vec<f64> {
        exec.fold(
            &self.probs,
            |block, base| kernel.histograms(block, base, pools),
            add_vecs,
        )
    }

    /// The posterior of the subjects in `keep`, every other subject summed
    /// out: state `t` of the result, over `keep.count_ones()` subjects
    /// numbered by ascending index, holds the mass of every state `s` with
    /// `pext(s, keep) = t`. Each target sums its sources in ascending
    /// source-state order, in one serial pass of the blocks in block order,
    /// so the result does not depend on any [`ExecMode`].
    ///
    /// When `keep` covers every subject the projection is the identity: it
    /// borrows `self` and makes no pass.
    ///
    /// # Panics
    /// Panics if `keep` names a subject outside the cohort.
    pub fn project(&self, keep: u64) -> Cow<'_, DensePosterior> {
        let full = State::full(self.n_subjects).bits();
        assert!(
            keep & !full == 0,
            "projection mask {keep:#x} names a subject outside the cohort"
        );
        if keep == full {
            return Cow::Borrowed(self);
        }
        let m = keep.count_ones() as usize;
        let mut probs = vec![0.0f64; crate::num_states(m)];
        for (i, block) in self.probs.chunks(BLOCK_LEN).enumerate() {
            project_block(block, (i as u64) << BLOCK_BITS, keep, &mut probs);
        }
        Cow::Owned(DensePosterior {
            n_subjects: m,
            probs,
        })
    }

    /// The posterior over `n` subjects of which this one is the projection
    /// onto `keep`, when every subject outside `keep` had no mass: state
    /// `pdep(t, keep)` holds the mass of state `t`, every other state `0.0`.
    /// Projecting the result onto `keep` gives back every bit.
    ///
    /// # Panics
    /// Panics unless `keep` names `self.n_subjects()` subjects below `n`.
    pub fn expand(&self, keep: u64, n: usize) -> DensePosterior {
        assert!(
            keep.count_ones() as usize == self.n_subjects && keep & !State::full(n).bits() == 0,
            "expansion mask {keep:#x} does not place {} subjects among {n}",
            self.n_subjects
        );
        let mut probs = vec![0.0f64; crate::num_states(n)];
        expand_block(&self.probs, 0, keep, &mut probs);
        DensePosterior {
            n_subjects: n,
            probs,
        }
    }

    /// Shannon entropy (nats) of the normalized posterior. Zero-mass states
    /// contribute zero. Returns 0 for a degenerate (zero-total) posterior.
    pub fn entropy(&self) -> f64 {
        self.entropy_on(ExecMode::Serial)
    }

    /// [`Self::entropy`], with the blocks run where `exec` says.
    pub fn entropy_on(&self, exec: ExecMode) -> f64 {
        let (z, sum_plogp) = exec.fold(
            &self.probs,
            |block, _| plogp_sums(block),
            |(z1, s1), (z2, s2)| (z1 + z2, s1 + s2),
        );
        entropy_of(z, sum_plogp)
    }

    /// Maximum a-posteriori state and its normalized probability; the
    /// smallest state index among tied maxima, like [`Self::top_k`].
    pub fn map_state(&self) -> (State, f64) {
        self.map_state_on(ExecMode::Serial)
    }

    /// [`Self::map_state`], with the blocks run where `exec` says.
    pub fn map_state_on(&self, exec: ExecMode) -> (State, f64) {
        let (idx, p) = exec.fold(
            &self.probs,
            |block, base| {
                let (off, &p) = block
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| b.total_cmp(a))
                    .expect("non-empty block");
                (base + off as u64, p)
            },
            |a, b| if b.1.total_cmp(&a.1).is_gt() { b } else { a },
        );
        let z = self.total_on(exec);
        let prob = if z > 0.0 { p / z } else { 0.0 };
        (State(idx), prob)
    }

    /// The `k` highest-mass states with their normalized probabilities,
    /// descending (ties broken by state index, ascending).
    pub fn top_k(&self, k: usize) -> Vec<(State, f64)> {
        self.top_k_on(k, ExecMode::Serial)
    }

    /// [`Self::top_k`], with the blocks run where `exec` says: each block's
    /// `k` best are merged on the caller.
    pub fn top_k_on(&self, k: usize, exec: ExecMode) -> Vec<(State, f64)> {
        if k == 0 {
            return Vec::new();
        }
        let candidates = exec.fold(
            &self.probs,
            |block, base| top_k_block(block, base, k),
            |mut a, b| {
                a.extend(b);
                a
            },
        );
        finish_top_k(candidates, k, self.total_on(exec))
    }

    /// Expected number of positive subjects under the normalized posterior.
    pub fn expected_positives(&self) -> f64 {
        self.marginals().iter().sum()
    }

    /// Probability (normalized) that the number of positives is exactly `k`.
    pub fn rank_distribution(&self) -> Vec<f64> {
        self.rank_distribution_on(ExecMode::Serial)
    }

    /// [`Self::rank_distribution`], with the blocks run where `exec` says.
    pub fn rank_distribution_on(&self, exec: ExecMode) -> Vec<f64> {
        let rows = self.n_subjects + 1;
        let (mut hist, total) = exec.fold(
            &self.probs,
            |block, base| {
                let mut hist = vec![0.0; rows];
                let mut total = 0.0;
                for (s, &p) in (base..).zip(block) {
                    hist[s.count_ones() as usize] += p;
                    total += p;
                }
                (hist, total)
            },
            add_sums,
        );
        if total > 0.0 {
            for h in &mut hist {
                *h /= total;
            }
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iter::all_states;

    const TOL: f64 = 1e-12;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn uniform_total_is_one() {
        let d = DensePosterior::new_uniform(6);
        assert_close(d.total(), 1.0);
        assert_eq!(d.len(), 64);
    }

    #[test]
    fn from_risks_matches_direct_product() {
        let risks = [0.1, 0.35, 0.02, 0.5];
        let d = DensePosterior::from_risks(&risks);
        for s in all_states(risks.len()) {
            let mut expected = 1.0;
            for (i, &p) in risks.iter().enumerate() {
                expected *= if s.contains(i) { p } else { 1.0 - p };
            }
            assert!((d.get(s) - expected).abs() < TOL, "state {s}");
        }
        assert_close(d.total(), 1.0);
    }

    #[test]
    fn from_risks_extreme_probabilities() {
        let d = DensePosterior::from_risks(&[0.0, 1.0]);
        // Only the state {1} has mass.
        assert_close(d.get(State::from_subjects([1])), 1.0);
        assert_close(d.get(State::EMPTY), 0.0);
        assert_close(d.get(State::from_subjects([0])), 0.0);
        assert_close(d.get(State::from_subjects([0, 1])), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn from_risks_validates() {
        let _ = DensePosterior::from_risks(&[0.5, 1.5]);
    }

    #[test]
    fn marginals_match_risks_for_prior() {
        let risks = [0.05, 0.2, 0.6, 0.01, 0.33];
        let d = DensePosterior::from_risks(&risks);
        let m = d.marginals();
        for (a, b) in m.iter().zip(risks.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn marginals_of_zero_posterior_are_zero() {
        let d = DensePosterior::from_probs(2, vec![0.0; 4]);
        assert_eq!(d.marginals(), vec![0.0, 0.0]);
    }

    #[test]
    fn normalize_and_degenerate() {
        let mut d = DensePosterior::from_probs(1, vec![3.0, 1.0]);
        let z = d.normalize();
        assert_close(z, 4.0);
        assert_close(d.get(State::EMPTY), 0.75);

        let mut zero = DensePosterior::from_probs(1, vec![0.0, 0.0]);
        assert!(zero.try_normalize().is_none());
        let mut nan = DensePosterior::from_probs(1, vec![f64::NAN, 1.0]);
        assert!(nan.try_normalize().is_none());
    }

    #[test]
    #[should_panic(expected = "observation impossible")]
    fn normalize_panics_on_zero_mass() {
        let mut zero = DensePosterior::from_probs(1, vec![0.0, 0.0]);
        let _ = zero.normalize();
    }

    #[test]
    fn mul_likelihood_indexes_by_intersection() {
        let mut d = DensePosterior::new_uniform(3);
        let pool = State::from_subjects([0, 2]);
        // table[k]: distinguishable per k
        let table = [1.0, 10.0, 100.0];
        d.mul_likelihood(pool, &table);
        let base = 1.0 / 8.0;
        assert_close(d.get(State::EMPTY), base);
        assert_close(d.get(State::from_subjects([1])), base);
        assert_close(d.get(State::from_subjects([0])), 10.0 * base);
        assert_close(d.get(State::from_subjects([2, 1])), 10.0 * base);
        assert_close(d.get(State::from_subjects([0, 2])), 100.0 * base);
    }

    #[test]
    fn fused_equals_separate() {
        let risks = [0.1, 0.2, 0.3, 0.4, 0.25];
        let pool = State::from_subjects([1, 3, 4]);
        let table = [0.95, 0.3, 0.2, 0.1];
        let mut a = DensePosterior::from_risks(&risks);
        let mut b = a.clone();
        a.mul_likelihood(pool, &table);
        let total = b.mul_likelihood_fused(pool, &table);
        assert_eq!(a.probs(), b.probs());
        assert_close(total, a.total());
    }

    #[test]
    #[should_panic(expected = "likelihood table too short")]
    fn mul_likelihood_table_length_checked() {
        let mut d = DensePosterior::new_uniform(3);
        d.mul_likelihood(State::from_subjects([0, 1]), &[1.0, 2.0]);
    }

    #[test]
    fn pool_negative_mass_matches_enumeration() {
        let risks = [0.3, 0.1, 0.25, 0.4];
        let d = DensePosterior::from_risks(&risks);
        let pool = State::from_subjects([1, 2]);
        let expected: f64 = all_states(4)
            .filter(|s| !s.intersects(pool))
            .map(|s| d.get(s))
            .sum();
        assert_close(d.pool_negative_mass(pool), expected);
        // For an independent prior, mass = ∏ (1-p_i) over pool members.
        assert_close(expected, 0.9 * 0.75);
    }

    #[test]
    fn prefix_masses_match_per_pool_scans() {
        let risks = [0.3, 0.1, 0.25, 0.4, 0.15];
        let d = DensePosterior::from_risks(&risks);
        let order = [3usize, 0, 4, 1, 2];
        let masses = d.prefix_negative_masses(&order);
        assert_eq!(masses.len(), 6);
        for k in 0..=order.len() {
            let pool = State::from_subjects(order[..k].iter().copied());
            assert!(
                (masses[k] - d.pool_negative_mass(pool)).abs() < 1e-9,
                "prefix {k}"
            );
        }
        assert_close(masses[0], d.total());
    }

    #[test]
    fn prefix_masses_partial_order() {
        // Order over a strict subset of subjects.
        let d = DensePosterior::from_risks(&[0.5, 0.5, 0.5]);
        let masses = d.prefix_negative_masses(&[1]);
        assert_eq!(masses.len(), 2);
        assert_close(masses[0], 1.0);
        assert_close(masses[1], 0.5);
    }

    #[test]
    #[should_panic(expected = "duplicate subject")]
    fn prefix_masses_rejects_duplicates() {
        let d = DensePosterior::new_uniform(3);
        let _ = d.prefix_negative_masses(&[1, 1]);
    }

    #[test]
    fn entropy_uniform_is_n_log2() {
        let d = DensePosterior::new_uniform(5);
        assert_close(d.entropy(), 32f64.ln());
        // Scaling the masses must not change the entropy.
        let scaled = DensePosterior::from_probs(5, d.probs().iter().map(|p| p * 7.0).collect());
        assert_close(scaled.entropy(), 32f64.ln());
    }

    #[test]
    fn entropy_point_mass_is_zero() {
        let mut probs = vec![0.0; 8];
        probs[3] = 2.5;
        let d = DensePosterior::from_probs(3, probs);
        assert_close(d.entropy(), 0.0);
    }

    #[test]
    fn map_state_and_top_k() {
        let mut probs = vec![0.0; 8];
        probs[5] = 0.5;
        probs[2] = 0.3;
        probs[7] = 0.2;
        let d = DensePosterior::from_probs(3, probs);
        let (s, p) = d.map_state();
        assert_eq!(s, State(5));
        assert_close(p, 0.5);
        let top = d.top_k(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, State(5));
        assert_eq!(top[1].0, State(2));
        assert_close(top[0].1, 0.5);
        assert!(d.top_k(0).is_empty());
        // k larger than the lattice is fine.
        assert_eq!(d.top_k(100).len(), 8);
    }

    #[test]
    fn top_k_tie_break_prefers_small_index() {
        let d = DensePosterior::from_probs(2, vec![0.25; 4]);
        let top = d.top_k(2);
        assert_eq!(top[0].0, State(0));
        assert_eq!(top[1].0, State(1));
    }

    #[test]
    fn expected_positives_matches_rank_distribution() {
        let risks = [0.2, 0.5, 0.1];
        let d = DensePosterior::from_risks(&risks);
        let expected: f64 = risks.iter().sum();
        assert_close(d.expected_positives(), expected);
        let rd = d.rank_distribution();
        assert_eq!(rd.len(), 4);
        assert_close(rd.iter().sum::<f64>(), 1.0);
        let mean_rank: f64 = rd.iter().enumerate().map(|(k, p)| k as f64 * p).sum();
        assert_close(mean_rank, expected);
    }

    #[test]
    fn projection_keeps_the_total_and_the_kept_marginals() {
        let risks = [0.3, 0.1, 0.25, 0.4, 0.15, 0.05, 0.2, 0.35, 0.12, 0.45];
        let mut d = DensePosterior::from_risks(&risks);
        // Correlate the subjects, so the projection is more than a product.
        d.mul_likelihood(State::from_subjects([1, 4, 8]), &[0.98, 0.4, 0.2, 0.1]);
        let full = d.marginals();
        for keep in [0b10_0100_1010u64, 0b1, 0b11_0000_0000, 0, 0b01_1111_1110] {
            let p = d.project(keep);
            assert!(matches!(p, Cow::Owned(_)), "keep {keep:#b}");
            assert_eq!(p.n_subjects(), keep.count_ones() as usize);
            assert!((p.total() - d.total()).abs() < 1e-12, "keep {keep:#b}");
            let kept = p.marginals();
            for (rank, subj) in State(keep).subjects().enumerate() {
                assert_close(kept[rank], full[subj]);
            }
        }
    }

    #[test]
    fn projection_onto_every_subject_borrows_the_posterior() {
        let d = DensePosterior::from_risks(&[0.3, 0.1, 0.25, 0.4]);
        let p = d.project(0b1111);
        let Cow::Borrowed(same) = p else {
            panic!("the identity projection made a pass");
        };
        assert!(std::ptr::eq(same, &d));
        let bits: Vec<u64> = same.probs().iter().map(|p| p.to_bits()).collect();
        let want: Vec<u64> = d.probs().iter().map(|p| p.to_bits()).collect();
        assert_eq!(bits, want);
    }

    /// Subject 0 of three kept: target 0 sums states 0, 2, 4, 6 and target
    /// 1 sums 1, 3, 5, 7, each in that order. The masses are chosen so the
    /// other association of the same three non-zero terms gives a different
    /// double, in both directions.
    #[test]
    fn projection_sums_its_sources_in_ascending_state_order() {
        let tiny = f64::EPSILON * 0.45;
        // Target 0: (1 + tiny) + tiny rounds both tinies away.
        // Target 1: (tiny + tiny) + 1 keeps them.
        let probs = vec![1.0, tiny, tiny, tiny, tiny, 1.0, 0.0, 0.0];
        let d = DensePosterior::from_probs(3, probs);
        let p = d.project(0b001);
        assert_eq!(p.probs()[0], (1.0 + tiny) + tiny);
        assert_ne!(p.probs()[0], 1.0 + (tiny + tiny));
        assert_eq!(p.probs()[1], (tiny + tiny) + 1.0);
        assert_ne!(p.probs()[1], tiny + (tiny + 1.0));
    }

    #[test]
    #[should_panic(expected = "outside the cohort")]
    fn projection_rejects_a_foreign_subject() {
        let _ = DensePosterior::new_uniform(3).project(0b1001);
    }

    #[test]
    fn order_mask_matches_the_order_and_checks_it_like_the_tables() {
        assert_eq!(order_mask(6, &[4, 0, 2]), 0b01_0101);
        assert_eq!(order_mask(6, &[]), 0);
        for (order, msg) in [
            (&[1usize, 1][..], "duplicate subject 1 in order"),
            (&[0, 6][..], "subject 6 out of range"),
        ] {
            let err = std::panic::catch_unwind(|| order_mask(6, order)).unwrap_err();
            assert_eq!(err.downcast_ref::<String>().map(String::as_str), Some(msg));
        }
    }

    #[test]
    fn pext_packs_the_masked_bits_in_order() {
        assert_eq!(pext(0b1011_0110, 0b1111_0000), 0b1011);
        assert_eq!(pext(0b1011_0110, 0b0101_0101), 0b0110);
        assert_eq!(pext(u64::MAX, 1 << 63 | 1), 0b11);
        assert_eq!(pext(0xFF, 0), 0);
    }

    #[test]
    fn pdep_undoes_pext_on_the_mask() {
        assert_eq!(pdep(0b1011, 0b1111_0000), 0b1011_0000);
        assert_eq!(pdep(0b0110, 0b0101_0101), 0b0001_0100);
        assert_eq!(pdep(0b11, 1 << 63 | 1), 1 << 63 | 1);
        assert_eq!(pdep(0xFF, 0), 0);
        let mask = 0b1101_0110u64;
        for x in 0..1u64 << mask.count_ones() {
            assert_eq!(pext(pdep(x, mask), mask), x);
            assert!(x == 0 || pdep(x - 1, mask) < pdep(x, mask), "monotone");
        }
    }

    /// Subjects 1 and 3 of five hold no mass: projecting them out keeps
    /// every mass's bits, and expanding gives the lattice back, bit for bit.
    #[test]
    fn expansion_undoes_a_projection_of_massless_subjects() {
        let mut d = DensePosterior::from_risks(&[0.3, 0.1, 0.25, 0.4, 0.15]);
        d.mul_likelihood(State::from_subjects([1, 3]), &[1.0, 0.0, 0.0]);
        let keep = 0b10101;
        let projected = d.project(keep);
        for t in 0..8u64 {
            assert_eq!(
                projected.probs()[t as usize].to_bits(),
                d.probs()[pdep(t, keep) as usize].to_bits()
            );
        }
        let back = projected.expand(keep, 5);
        let bits = |d: &DensePosterior| d.probs().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&d));
        // Expanding one block at a time, from any base, places the same bits.
        let mut tail = vec![f64::NAN; 32 - pdep(4, keep) as usize];
        expand_block(&projected.probs()[4..], 4, keep, &mut tail);
        for (s, p) in (pdep(4, keep)..).zip(&tail) {
            if s & !keep == 0 {
                assert_eq!(p.to_bits(), d.probs()[s as usize].to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not place")]
    fn expansion_rejects_a_mask_of_the_wrong_size() {
        let _ = DensePosterior::new_uniform(2).expand(0b111, 3);
    }

    #[test]
    fn from_fn_builds_by_state() {
        let d = DensePosterior::from_fn(3, |s| s.rank() as f64);
        assert_eq!(d.get(State::from_subjects([0, 1, 2])), 3.0);
        assert_eq!(d.get(State::EMPTY), 0.0);
    }
}
