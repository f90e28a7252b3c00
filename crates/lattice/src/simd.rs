//! Runtime-dispatched SIMD kernels for the `Θ(2^N)` hot loops.
//!
//! Four kernels dominate every SBGT round: the blocked-popcount posterior
//! update, the fused update+marginals+histogram superstage, the
//! branch-fused look-ahead accumulator and the subject-lane marginal sums.
//! Each has a **scalar reference** here (the semantic definition) and an
//! AVX2 variant that is **bit-for-bit identical** to it; `cargo test` pins
//! the equality on any machine with AVX2 and the forced-scalar CI step
//! validates the dispatcher without it.
//!
//! ## Why bit-for-bit is achievable
//!
//! Per-element multiplies are exact in IEEE-754 (the same two operands give
//! the same product regardless of vector width), so only *reduction order*
//! can diverge. Kernels 1–3 therefore fix every reduction to four
//! accumulator lanes indexed by the partition-local offset modulo 4 —
//! exactly one 4×f64 AVX2 register — with the final reduce
//! `(l0 + l1) + (l2 + l3)`. The scalar reference performs the same lane
//! assignment, so the two paths execute the same additions in the same
//! order per lane. Masked accumulations (the per-subject marginal lanes)
//! add an explicit `+0.0` for non-members in both variants, keeping the
//! instruction-level blend-and-add of the vector path structurally
//! identical to the scalar loop.
//!
//! Kernel 4 reproduces a reference that has no `o & 3` lanes — the plain
//! per-state loop every marginals read-out has always run — so its lanes
//! are *subjects* instead: each lane is one subject's accumulator and sees
//! that accumulator's scalar add sequence, state by state, with `+0.0`
//! where the subject is absent. `x + 0.0 == x` for every accumulator a sum
//! of masses started at `+0.0` can reach, so the `+0.0` adds change no bit.
//!
//! ## AVX-512
//!
//! The dispatcher detects AVX-512F but deliberately runs the 256-bit
//! kernels on it: 8-lane accumulators would change the block-internal add
//! order and break the bit-for-bit contract against the 4-lane reference.
//! What AVX-512 buys here is the richer VL encodings, not width.
//!
//! Dispatch is detected once and cached ([`active`]); setting the
//! `SBGT_FORCE_SCALAR` environment variable (to anything but `0`) before
//! first use forces the scalar path, which is how CI validates the
//! dispatcher on machines without the vector units.

use std::sync::OnceLock;

use crate::branch::{low_byte_popcounts, LookaheadKernel};
use crate::dense::{hi_first_pos, low_first_pos};

/// Environment variable that forces scalar dispatch when set (non-`0`).
pub const FORCE_SCALAR_ENV: &str = "SBGT_FORCE_SCALAR";

/// The instruction set the kernels dispatch to, detected once per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Blocked scalar reference kernels.
    Scalar,
    /// 256-bit AVX2 kernels (4 × f64 lanes).
    Avx2,
    /// AVX-512F detected; runs the 256-bit kernels to preserve the 4-lane
    /// add order (see module docs).
    Avx512,
}

impl SimdLevel {
    /// Whether the vector kernels are active.
    pub fn is_simd(&self) -> bool {
        !matches!(self, SimdLevel::Scalar)
    }

    /// Human-readable dispatch name (for benches and logs).
    pub fn name(&self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512(4-lane)",
        }
    }
}

/// The cached dispatch decision for this process.
pub fn active() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        if std::env::var(FORCE_SCALAR_ENV).is_ok_and(|v| !v.is_empty() && v != "0") {
            return SimdLevel::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return SimdLevel::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdLevel::Avx2;
            }
        }
        SimdLevel::Scalar
    })
}

/// Name of the active dispatch (for benches and logs).
pub fn active_name() -> &'static str {
    active().name()
}

#[inline]
fn reduce4(l: [f64; 4]) -> f64 {
    (l[0] + l[1]) + (l[2] + l[3])
}

// ---------------------------------------------------------------------------
// Kernel 1: blocked-popcount in-place update.
// ---------------------------------------------------------------------------

/// In-place posterior update over one contiguous block:
/// `probs[o] *= table[popcount((base + o) & mask)]`, returning the block's
/// new total mass. `probs[o]` holds the mass of global state `base + o`.
///
/// Blocked popcount: within each 256-aligned run of global indices the high
/// bits of the state are constant, so their popcount is hoisted and the low
/// byte indexes a 256-entry table. The sum uses 4 lanes keyed by `o & 3`.
pub fn mul_table_block(probs: &mut [f64], base: u64, mask: u64, table: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if active().is_simd() {
        // SAFETY: dispatch checked AVX2 availability.
        return unsafe { mul_table_block_avx2(probs, base, mask, table) };
    }
    mul_table_block_scalar(probs, base, mask, table)
}

/// Scalar reference of [`mul_table_block`] (public so equivalence tests can
/// pin the vector path against it bit-for-bit).
pub fn mul_table_block_scalar(probs: &mut [f64], base: u64, mask: u64, table: &[f64]) -> f64 {
    let lo = low_byte_popcounts(mask);
    let hi_mask = mask & !0xFF;
    let mut lanes = [0.0f64; 4];
    let len = probs.len();
    let mut off = 0usize;
    while off < len {
        let state = base + off as u64;
        let k_hi = (state & hi_mask).count_ones() as usize;
        let run = ((256 - (state & 0xFF)) as usize).min(len - off);
        for o in off..off + run {
            let b = ((base + o as u64) & 0xFF) as usize;
            let v = probs[o] * table[k_hi + lo[b] as usize];
            probs[o] = v;
            lanes[o & 3] += v;
        }
        off += run;
    }
    reduce4(lanes)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mul_table_block_avx2(probs: &mut [f64], base: u64, mask: u64, table: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let lo = low_byte_popcounts(mask);
    let hi_mask = mask & !0xFF;
    let mut lanes = [0.0f64; 4];
    let len = probs.len();
    let mut off = 0usize;
    while off < len {
        let state = base + off as u64;
        let k_hi = (state & hi_mask).count_ones() as usize;
        let run = ((256 - (state & 0xFF)) as usize).min(len - off);
        let end = off + run;
        // Scalar head up to the 4-alignment of the partition-local offset.
        // Each element lands in the same lane (`o & 3`) in the same order
        // as the scalar reference, so per-lane sums stay bit-identical.
        while off < end && off & 3 != 0 {
            let b = ((base + off as u64) & 0xFF) as usize;
            let v = probs[off] * table[k_hi + lo[b] as usize];
            probs[off] = v;
            lanes[off & 3] += v;
            off += 1;
        }
        if off + 4 <= end {
            let mut acc = _mm256_loadu_pd(lanes.as_ptr());
            while off + 4 <= end {
                let byte = ((base + off as u64) & 0xFF) as usize;
                let f = _mm256_set_pd(
                    table[k_hi + lo[byte + 3] as usize],
                    table[k_hi + lo[byte + 2] as usize],
                    table[k_hi + lo[byte + 1] as usize],
                    table[k_hi + lo[byte] as usize],
                );
                let p = _mm256_loadu_pd(probs.as_ptr().add(off));
                let v = _mm256_mul_pd(p, f);
                _mm256_storeu_pd(probs.as_mut_ptr().add(off), v);
                acc = _mm256_add_pd(acc, v);
                off += 4;
            }
            _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
        }
        // Scalar tail of the run.
        while off < end {
            let b = ((base + off as u64) & 0xFF) as usize;
            let v = probs[off] * table[k_hi + lo[b] as usize];
            probs[off] = v;
            lanes[off & 3] += v;
            off += 1;
        }
    }
    reduce4(lanes)
}

// ---------------------------------------------------------------------------
// Kernel 2: fused update + marginals + first-positive histogram superstage.
// ---------------------------------------------------------------------------

/// One-pass fused round superstage over a contiguous block: performs the
/// in-place update of [`mul_table_block`] and, in the same traversal,
/// accumulates the **unnormalized** per-subject marginal masses of the new
/// values into `marginals` and their first-positive histogram (layout of
/// [`LookaheadKernel::histograms`] with no committed pools, i.e.
/// `kernel.num_prefixes()` rows) into `hist`. Returns the block's new total.
///
/// Reduction layout (shared bit-for-bit by scalar and AVX2):
/// * the total uses 4 lanes keyed by `o & 3`;
/// * subjects 0..8 (the in-run-varying low byte) use one 4-lane quad per
///   subject, with an explicit `+0.0` for states not containing the
///   subject;
/// * subjects ≥ 8 are constant within a 256-aligned run, so the run's
///   4-lane total is reduced once per run and added to each such subject;
/// * histogram adds are scattered and stay scalar in both variants, in
///   ascending `o` order.
pub fn fused_update_block(
    probs: &mut [f64],
    base: u64,
    mask: u64,
    table: &[f64],
    kernel: &LookaheadKernel,
    marginals: &mut [f64],
    hist: &mut [f64],
) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if active().is_simd() {
        // SAFETY: dispatch checked AVX2 availability.
        return unsafe {
            fused_update_block_avx2(probs, base, mask, table, kernel, marginals, hist)
        };
    }
    fused_update_block_scalar(probs, base, mask, table, kernel, marginals, hist)
}

/// Scalar reference of [`fused_update_block`].
pub fn fused_update_block_scalar(
    probs: &mut [f64],
    base: u64,
    mask: u64,
    table: &[f64],
    kernel: &LookaheadKernel,
    marginals: &mut [f64],
    hist: &mut [f64],
) -> f64 {
    debug_assert_eq!(hist.len(), kernel.num_prefixes());
    let lo = low_byte_popcounts(mask);
    let hi_mask = mask & !0xFF;
    let tables = kernel.first_tables();
    let m = (kernel.num_prefixes() - 1) as u32;
    let n = marginals.len();
    let n_lo = n.min(8);
    let mut sum_lanes = [0.0f64; 4];
    let mut macc = [[0.0f64; 4]; 8];
    let len = probs.len();
    let mut off = 0usize;
    while off < len {
        let state = base + off as u64;
        let k_hi = (state & hi_mask).count_ones() as usize;
        let hi_first = hi_first_pos(tables, state, m);
        let run = ((256 - (state & 0xFF)) as usize).min(len - off);
        let mut run_lanes = [0.0f64; 4];
        // Indexing by `o` (not an enumerated iterator) keeps the lane key
        // `o & 3` visibly tied to the global offset the AVX path uses.
        #[allow(clippy::needless_range_loop)]
        for o in off..off + run {
            let byte = ((base + o as u64) & 0xFF) as usize;
            let v = probs[o] * table[k_hi + lo[byte] as usize];
            probs[o] = v;
            let lane = o & 3;
            sum_lanes[lane] += v;
            run_lanes[lane] += v;
            for (b, quad) in macc.iter_mut().enumerate().take(n_lo) {
                // Explicit +0.0 for non-members keeps the add sequence
                // structurally identical to the vector blend-and-add.
                quad[lane] += if byte & (1 << b) != 0 { v } else { 0.0 };
            }
            hist[low_first_pos(tables, byte, hi_first) as usize] += v;
        }
        add_run_marginals(marginals, state, n, reduce4(run_lanes));
        off += run;
    }
    for (b, quad) in macc.iter().enumerate().take(n_lo) {
        marginals[b] += reduce4(*quad);
    }
    reduce4(sum_lanes)
}

/// Add a run's reduced total to every subject ≥ 8 contained in the run's
/// (constant) high state bits.
#[inline]
fn add_run_marginals(marginals: &mut [f64], state: u64, n: usize, run_total: f64) {
    let mut bits = state & !0xFF;
    while bits != 0 {
        let j = bits.trailing_zeros() as usize;
        if j < n {
            marginals[j] += run_total;
        }
        bits &= bits - 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fused_update_block_avx2(
    probs: &mut [f64],
    base: u64,
    mask: u64,
    table: &[f64],
    kernel: &LookaheadKernel,
    marginals: &mut [f64],
    hist: &mut [f64],
) -> f64 {
    use std::arch::x86_64::*;
    debug_assert_eq!(hist.len(), kernel.num_prefixes());
    let lo = low_byte_popcounts(mask);
    let hi_mask = mask & !0xFF;
    let tables = kernel.first_tables();
    let m = (kernel.num_prefixes() - 1) as u32;
    let n = marginals.len();
    let n_lo = n.min(8);
    let mut sum_lanes = [0.0f64; 4];
    let mut macc = [[0.0f64; 4]; 8];
    let len = probs.len();
    let mut off = 0usize;
    while off < len {
        let state = base + off as u64;
        let k_hi = (state & hi_mask).count_ones() as usize;
        let hi_first = hi_first_pos(tables, state, m);
        let run = ((256 - (state & 0xFF)) as usize).min(len - off);
        let end = off + run;
        let mut run_lanes = [0.0f64; 4];
        // Scalar head to 4-alignment — identical code to the reference.
        while off < end && off & 3 != 0 {
            let byte = ((base + off as u64) & 0xFF) as usize;
            let v = probs[off] * table[k_hi + lo[byte] as usize];
            probs[off] = v;
            let lane = off & 3;
            sum_lanes[lane] += v;
            run_lanes[lane] += v;
            for (b, quad) in macc.iter_mut().enumerate().take(n_lo) {
                quad[lane] += if byte & (1 << b) != 0 { v } else { 0.0 };
            }
            hist[low_first_pos(tables, byte, hi_first) as usize] += v;
            off += 1;
        }
        if off + 4 <= end {
            let mut sum_acc = _mm256_loadu_pd(sum_lanes.as_ptr());
            let mut run_acc = _mm256_loadu_pd(run_lanes.as_ptr());
            let mut macc_v = [_mm256_setzero_pd(); 8];
            for (b, quad) in macc.iter().enumerate().take(n_lo) {
                macc_v[b] = _mm256_loadu_pd(quad.as_ptr());
            }
            let byte0 = ((base + off as u64) & 0xFF) as i64;
            let mut bytes_v = _mm256_set_epi64x(byte0 + 3, byte0 + 2, byte0 + 1, byte0);
            let four = _mm256_set1_epi64x(4);
            let mut tmp = [0.0f64; 4];
            while off + 4 <= end {
                let byte = ((base + off as u64) & 0xFF) as usize;
                let f = _mm256_set_pd(
                    table[k_hi + lo[byte + 3] as usize],
                    table[k_hi + lo[byte + 2] as usize],
                    table[k_hi + lo[byte + 1] as usize],
                    table[k_hi + lo[byte] as usize],
                );
                let p = _mm256_loadu_pd(probs.as_ptr().add(off));
                let v = _mm256_mul_pd(p, f);
                _mm256_storeu_pd(probs.as_mut_ptr().add(off), v);
                sum_acc = _mm256_add_pd(sum_acc, v);
                run_acc = _mm256_add_pd(run_acc, v);
                for (b, acc) in macc_v.iter_mut().enumerate().take(n_lo) {
                    let bit = _mm256_set1_epi64x(1 << b);
                    let sel = _mm256_cmpeq_epi64(_mm256_and_si256(bytes_v, bit), bit);
                    // Blend-and-add: lanes whose state lacks the subject
                    // contribute an exact +0.0, as in the scalar reference.
                    let masked = _mm256_and_pd(v, _mm256_castsi256_pd(sel));
                    *acc = _mm256_add_pd(*acc, masked);
                }
                // Histogram adds stay scalar (scattered target), ascending.
                _mm256_storeu_pd(tmp.as_mut_ptr(), v);
                for (i, &tv) in tmp.iter().enumerate() {
                    hist[low_first_pos(tables, byte + i, hi_first) as usize] += tv;
                }
                bytes_v = _mm256_add_epi64(bytes_v, four);
                off += 4;
            }
            _mm256_storeu_pd(sum_lanes.as_mut_ptr(), sum_acc);
            _mm256_storeu_pd(run_lanes.as_mut_ptr(), run_acc);
            for (b, quad) in macc.iter_mut().enumerate().take(n_lo) {
                _mm256_storeu_pd(quad.as_mut_ptr(), macc_v[b]);
            }
        }
        // Scalar tail of the run.
        while off < end {
            let byte = ((base + off as u64) & 0xFF) as usize;
            let v = probs[off] * table[k_hi + lo[byte] as usize];
            probs[off] = v;
            let lane = off & 3;
            sum_lanes[lane] += v;
            run_lanes[lane] += v;
            for (b, quad) in macc.iter_mut().enumerate().take(n_lo) {
                quad[lane] += if byte & (1 << b) != 0 { v } else { 0.0 };
            }
            hist[low_first_pos(tables, byte, hi_first) as usize] += v;
            off += 1;
        }
        add_run_marginals(marginals, state, n, reduce4(run_lanes));
    }
    for (b, quad) in macc.iter().enumerate().take(n_lo) {
        marginals[b] += reduce4(*quad);
    }
    reduce4(sum_lanes)
}

// ---------------------------------------------------------------------------
// Kernel 3: branch-fused look-ahead accumulator primitives.
// ---------------------------------------------------------------------------

/// One doubling step of the look-ahead branch products, in place:
/// `prod[2b+1] = prod[b] * pos; prod[2b] = prod[b] * neg` for
/// `b = cur-1 .. 0`. Per-element multiplies only — bit-for-bit across
/// dispatch levels by construction.
pub fn lookahead_double_block(prod: &mut [f64], cur: usize, neg: f64, pos: f64) {
    #[cfg(target_arch = "x86_64")]
    if cur >= 4 && active().is_simd() {
        // SAFETY: dispatch checked AVX2 availability.
        unsafe { lookahead_double_block_avx2(prod, cur, neg, pos) };
        return;
    }
    lookahead_double_block_scalar(prod, cur, neg, pos)
}

/// Scalar reference of [`lookahead_double_block`].
pub fn lookahead_double_block_scalar(prod: &mut [f64], cur: usize, neg: f64, pos: f64) {
    debug_assert!(prod.len() >= 2 * cur);
    // Doubling in reverse keeps reads ahead of writes.
    for b in (0..cur).rev() {
        let w = prod[b];
        prod[2 * b + 1] = w * pos;
        prod[2 * b] = w * neg;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lookahead_double_block_avx2(prod: &mut [f64], cur: usize, neg: f64, pos: f64) {
    use std::arch::x86_64::*;
    debug_assert!(prod.len() >= 2 * cur && cur.is_multiple_of(4));
    let f = _mm256_set_pd(pos, neg, pos, neg);
    // Chunk q reads prod[4q..4q+4] and writes prod[8q..8q+8]; processing
    // high chunks first keeps every read ahead of its clobbering write.
    for q in (0..cur / 4).rev() {
        let w = _mm256_loadu_pd(prod.as_ptr().add(4 * q));
        // [w0,w0,w1,w1] and [w2,w2,w3,w3]
        let dup01 = _mm256_permute4x64_pd(w, 0b01_01_00_00);
        let dup23 = _mm256_permute4x64_pd(w, 0b11_11_10_10);
        _mm256_storeu_pd(prod.as_mut_ptr().add(8 * q), _mm256_mul_pd(dup01, f));
        _mm256_storeu_pd(prod.as_mut_ptr().add(8 * q + 4), _mm256_mul_pd(dup23, f));
    }
}

/// Elementwise `dst[i] += src[i]` (the histogram-row accumulate of the
/// look-ahead kernel). Independent adds — bit-for-bit across dispatch
/// levels by construction.
pub fn add_assign_block(dst: &mut [f64], src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    if src.len() >= 4 && active().is_simd() {
        // SAFETY: dispatch checked AVX2 availability.
        unsafe { add_assign_block_avx2(dst, src) };
        return;
    }
    add_assign_block_scalar(dst, src)
}

/// Scalar reference of [`add_assign_block`].
pub fn add_assign_block_scalar(dst: &mut [f64], src: &[f64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn add_assign_block_avx2(dst: &mut [f64], src: &[f64]) {
    use std::arch::x86_64::*;
    let len = dst.len();
    let mut i = 0usize;
    while i + 4 <= len {
        let d = _mm256_loadu_pd(dst.as_ptr().add(i));
        let s = _mm256_loadu_pd(src.as_ptr().add(i));
        _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_add_pd(d, s));
        i += 4;
    }
    while i < len {
        dst[i] += src[i];
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Kernel 4: subject-lane marginal sums.
// ---------------------------------------------------------------------------

/// Subjects whose accumulators the vector kernel holds in registers: four
/// per 4×f64 register, eight registers.
const LANE_SUBJECTS: usize = 32;

/// `NIBBLE_LANES[b]` has lane `j` all-ones iff bit `j` of `b` is set. ANDed
/// with a broadcast mass it keeps the mass in the lanes of the subjects
/// `4r .. 4r + 3` that nibble `r` of a state holds, and `+0.0` elsewhere.
const NIBBLE_LANES: [[u64; 4]; 16] = {
    let mut t = [[0u64; 4]; 16];
    let mut b = 0;
    while b < 16 {
        let mut j = 0;
        while j < 4 {
            if b >> j & 1 == 1 {
                t[b][j] = u64::MAX;
            }
            j += 1;
        }
        b += 1;
    }
    t
};

/// Block kernel: `acc[i] += π(s)` for every subject `i ∈ s` over one block
/// (`probs[off]` is the mass of state `base + off`, and `acc` has one slot
/// per subject of the lattice); returns the block's total mass, one serial
/// sum in state order. Bit-for-bit [`marginal_sums_scalar`].
pub fn marginal_sums(probs: &[f64], base: u64, acc: &mut [f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if active().is_simd() && (1..=LANE_SUBJECTS).contains(&acc.len()) {
        // SAFETY: dispatch checked AVX2 availability; the subject count is
        // in range.
        return unsafe { subject_lanes_avx2(probs.len(), base, acc, |o| probs[o]) };
    }
    marginal_sums_scalar(probs, base, acc)
}

/// [`marginal_sums`] over the block scaled in place: every mass becomes
/// `π(s) · factor` and is summed as such, in the same traversal —
/// bit-for-bit a scale pass followed by [`marginal_sums`].
pub fn scale_marginal_sums(probs: &mut [f64], base: u64, factor: f64, acc: &mut [f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if active().is_simd() && (1..=LANE_SUBJECTS).contains(&acc.len()) {
        let len = probs.len();
        // SAFETY: dispatch checked AVX2 availability; the subject count is
        // in range.
        return unsafe { subject_lanes_avx2(len, base, acc, |o| scale_at(probs, o, factor)) };
    }
    scale_marginal_sums_scalar(probs, base, factor, acc)
}

/// Scalar reference of [`marginal_sums`]: per state, one add to the total
/// and one scattered add per member subject.
pub fn marginal_sums_scalar(probs: &[f64], base: u64, acc: &mut [f64]) -> f64 {
    subject_sums(probs.len(), base, acc, |o| probs[o])
}

/// Scalar reference of [`scale_marginal_sums`].
pub fn scale_marginal_sums_scalar(
    probs: &mut [f64],
    base: u64,
    factor: f64,
    acc: &mut [f64],
) -> f64 {
    let len = probs.len();
    subject_sums(len, base, acc, |o| scale_at(probs, o, factor))
}

#[inline(always)]
fn scale_at(probs: &mut [f64], o: usize, factor: f64) -> f64 {
    let p = probs[o] * factor;
    probs[o] = p;
    p
}

/// The reference loop over a block of `len` states; `mass(o)` yields the
/// mass of state `base + o`, once per state in ascending order.
#[inline(always)]
fn subject_sums(len: usize, base: u64, acc: &mut [f64], mut mass: impl FnMut(usize) -> f64) -> f64 {
    let mut total = 0.0f64;
    for o in 0..len {
        let p = mass(o);
        total += p;
        let mut bits = base + o as u64;
        while bits != 0 {
            acc[bits.trailing_zeros() as usize] += p;
            bits &= bits - 1;
        }
    }
    total
}

/// Monomorphise [`subject_lanes`] on the register count, so the lanes are
/// a fixed-size array LLVM keeps in registers; lanes indexed at run time
/// spill to memory and run slower than the scalar reference.
///
/// # Safety
/// The CPU must support AVX2. `1 ≤ acc.len() ≤ LANE_SUBJECTS` picks the
/// register count that covers every subject.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn subject_lanes_avx2(
    len: usize,
    base: u64,
    acc: &mut [f64],
    mass: impl FnMut(usize) -> f64,
) -> f64 {
    match acc.len().div_ceil(4) {
        1 => subject_lanes::<1>(len, base, acc, mass),
        2 => subject_lanes::<2>(len, base, acc, mass),
        3 => subject_lanes::<3>(len, base, acc, mass),
        4 => subject_lanes::<4>(len, base, acc, mass),
        5 => subject_lanes::<5>(len, base, acc, mass),
        6 => subject_lanes::<6>(len, base, acc, mass),
        7 => subject_lanes::<7>(len, base, acc, mass),
        _ => subject_lanes::<8>(len, base, acc, mass),
    }
}

/// [`subject_sums`] with subject `4r + j` accumulated in lane `j` of
/// register `r`: each state's mass is broadcast and masked by
/// [`NIBBLE_LANES`], so every lane performs its subject's reference add
/// sequence (plus exact `+0.0`s); the total stays a scalar chain.
///
/// `acc.len() ≤ 4 * R`; subjects past `4 * R` would not be accumulated.
///
/// # Safety
/// The CPU must support AVX2. The lane loads and stores stay inside the
/// `LANE_SUBJECTS`-slot buffer: `4 * R ≤ LANE_SUBJECTS` is checked at
/// compile time.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::needless_range_loop)]
unsafe fn subject_lanes<const R: usize>(
    len: usize,
    base: u64,
    acc: &mut [f64],
    mut mass: impl FnMut(usize) -> f64,
) -> f64 {
    use std::arch::x86_64::*;
    const { assert!(4 * R <= LANE_SUBJECTS) };
    let n = acc.len();
    // The reference indexes `acc` by every set bit; here a bit at or past
    // `n` would land in a discarded padding lane instead of panicking.
    assert!(
        base + len as u64 <= 1u64 << n,
        "block outside the 2^{n}-state lattice"
    );
    let mask = |nibble: u64| _mm256_loadu_pd(NIBBLE_LANES[(nibble & 0xF) as usize].as_ptr().cast());
    let mut padded = [0.0f64; LANE_SUBJECTS];
    padded[..n].copy_from_slice(acc);
    // Plain index loops over the constant `R` throughout: LLVM unrolls them
    // into register code, where iterator adapters stayed out-of-line calls
    // that forced the lanes and the total through memory.
    let mut lanes = [_mm256_setzero_pd(); R];
    for r in 0..R {
        lanes[r] = _mm256_loadu_pd(padded.as_ptr().add(4 * r));
    }
    let mut total = 0.0f64;
    let mut o = 0usize;
    while o < len {
        let state = base + o as u64;
        // Nibbles above the lowest are constant over a 16-aligned run, so
        // their masks are loaded once per run.
        let run = ((16 - (state & 0xF)) as usize).min(len - o);
        let mut hi = [_mm256_setzero_pd(); R];
        for r in 1..R {
            hi[r] = mask(state >> (4 * r));
        }
        for j in 0..run {
            let p = mass(o + j);
            total += p;
            let v = _mm256_set1_pd(p);
            lanes[0] = _mm256_add_pd(lanes[0], _mm256_and_pd(v, mask(state + j as u64)));
            for r in 1..R {
                lanes[r] = _mm256_add_pd(lanes[r], _mm256_and_pd(v, hi[r]));
            }
        }
        o += run;
    }
    for r in 0..R {
        _mm256_storeu_pd(padded.as_mut_ptr().add(4 * r), lanes[r]);
    }
    acc.copy_from_slice(&padded[..n]);
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DensePosterior;
    use crate::state::State;

    /// Deterministic pseudo-random masses (no RNG dependency needed).
    fn masses(len: usize, seed: u64) -> Vec<f64> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    fn table_for(mask: u64) -> Vec<f64> {
        let r = mask.count_ones() as usize;
        (0..=r).map(|k| 0.9 - 0.07 * k as f64).collect()
    }

    #[test]
    fn dispatch_is_cached_and_named() {
        let first = active();
        assert_eq!(first, active());
        assert!(!active_name().is_empty());
    }

    #[test]
    fn mul_table_block_matches_naive_dense_update() {
        let n = 10;
        let mask = 0b10_0110_1001u64;
        let table = table_for(mask);
        let mut d = DensePosterior::from_probs(n, masses(1 << n, 7));
        let mut blocked = d.probs().to_vec();
        let z_naive = d.mul_likelihood_fused(State(mask), &table);
        let z_block = mul_table_block(&mut blocked, 0, mask, &table);
        assert!((z_naive - z_block).abs() < 1e-12 * (1.0 + z_naive.abs()));
        // Per-element products are exact: values match bit-for-bit even
        // against the naive order (only the sum order differs).
        for (a, b) in d.probs().iter().zip(&blocked) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn dispatched_update_is_bit_identical_to_scalar() {
        // Misaligned bases and ragged lengths exercise head/tail handling.
        for (base, len, seed) in [
            (0u64, 1024usize, 3u64),
            (52, 517, 9),
            (255, 258, 11),
            (3, 7, 5),
        ] {
            let mask = 0b1_1010_0110_0101u64;
            let table = table_for(mask);
            let src = masses(len, seed);
            let mut a = src.clone();
            let mut b = src.clone();
            let za = mul_table_block(&mut a, base, mask, &table);
            let zb = mul_table_block_scalar(&mut b, base, mask, &table);
            assert_eq!(za.to_bits(), zb.to_bits(), "base {base} len {len}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn fused_block_matches_separate_kernels() {
        let n = 11;
        let mask = 0b110_0101_1010u64;
        let table = table_for(mask);
        let order: Vec<usize> = [4usize, 9, 0, 2, 7, 10, 1].to_vec();
        let kernel = LookaheadKernel::new(n, &order);
        let src = masses(1 << n, 21);

        let mut fused = src.clone();
        let mut marg = vec![0.0f64; n];
        let mut hist = vec![0.0f64; kernel.num_prefixes()];
        let sum = fused_update_block(&mut fused, 0, mask, &table, &kernel, &mut marg, &mut hist);

        // Semantics vs the naive dense kernels (tolerance: order differs).
        let mut d = DensePosterior::from_probs(n, src.clone());
        let z = d.mul_likelihood_fused(State(mask), &table);
        assert!((sum - z).abs() < 1e-12 * (1.0 + z.abs()));
        for (a, b) in fused.iter().zip(d.probs()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let want_marg: Vec<f64> = d.marginals().iter().map(|p| p * z).collect();
        for (a, b) in marg.iter().zip(&want_marg) {
            assert!((a - b).abs() < 1e-12 * (1.0 + b.abs()), "{a} vs {b}");
        }
        let naive_hist = kernel.histograms(d.probs(), 0, &[]);
        for (a, b) in hist.iter().zip(&naive_hist) {
            assert!((a - b).abs() < 1e-12 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn dispatched_fused_block_is_bit_identical_to_scalar() {
        let n = 12;
        let mask = 0b1010_0110_0101u64;
        let table = table_for(mask);
        let order: Vec<usize> = (0..n).rev().collect();
        let kernel = LookaheadKernel::new(n, &order);
        // Partition-style slices with misaligned bases.
        for (base, len, seed) in [(0u64, 1 << 12, 3u64), (103, 771, 13), (250, 12, 17)] {
            let src = masses(len, seed);
            let mut pa = src.clone();
            let mut pb = src.clone();
            let mut ma = vec![0.0f64; n];
            let mut mb = vec![0.0f64; n];
            let mut ha = vec![0.0f64; kernel.num_prefixes()];
            let mut hb = vec![0.0f64; kernel.num_prefixes()];
            let sa = fused_update_block(&mut pa, base, mask, &table, &kernel, &mut ma, &mut ha);
            let sb =
                fused_update_block_scalar(&mut pb, base, mask, &table, &kernel, &mut mb, &mut hb);
            assert_eq!(sa.to_bits(), sb.to_bits(), "base {base}");
            for (x, y) in pa.iter().zip(&pb) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            for (x, y) in ma.iter().zip(&mb) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            for (x, y) in ha.iter().zip(&hb) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn lookahead_primitives_are_bit_identical_to_scalar() {
        for cur in [1usize, 2, 4, 8, 16] {
            let mut a = masses(2 * cur, cur as u64 + 1);
            let mut b = a.clone();
            lookahead_double_block(&mut a, cur, 0.3, 0.7);
            lookahead_double_block_scalar(&mut b, cur, 0.3, 0.7);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "cur {cur}");
            }
        }
        for len in [1usize, 3, 4, 7, 32] {
            let src = masses(len, 5);
            let mut a = masses(len, 6);
            let mut b = a.clone();
            add_assign_block(&mut a, &src);
            add_assign_block_scalar(&mut b, &src);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "len {len}");
            }
        }
    }

    #[test]
    fn fused_block_handles_degenerate_shapes() {
        // n = 0: one state, empty order.
        let kernel = LookaheadKernel::new(0, &[]);
        let mut probs = vec![0.5f64];
        let mut marg: Vec<f64> = vec![];
        let mut hist = vec![0.0f64; 1];
        let sum = fused_update_block(&mut probs, 0, 0, &[0.8], &kernel, &mut marg, &mut hist);
        assert_eq!(sum, 0.4);
        assert_eq!(hist[0], 0.4);
    }
}
