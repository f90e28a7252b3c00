//! The block executor: the one order every in-memory lattice pass sums in.
//!
//! A `2^N`-state [`crate::DensePosterior`] is cut into blocks of
//! [`BLOCK_LEN`] = 2^16 states. Every `Θ(2^N)` pass over it runs its block
//! kernel (see [`crate::dense`]) once per block, at the block's global base
//! state, and folds the partials in **ascending block order, starting from
//! block 0's partial** — never in any other order (DESIGN.md §3). A lattice
//! of at most 2^16 states is one block, so its passes are the plain
//! whole-array loops.
//!
//! [`ExecMode`] decides only *where* the blocks run: inline on the calling
//! thread, or — in [`ExecMode::Parallel`] on a lattice of at least two
//! blocks — on rayon, whose order-preserving `collect` hands the partials
//! back in block order. The fold itself always runs on the caller, so both
//! modes perform the same additions in the same order on every host and at
//! every thread count. This file is the only place under `crates/*/src`
//! (outside the experiments driver) that names rayon.

use rayon::prelude::*;

/// log2 of the block length.
pub const BLOCK_BITS: u32 = 16;

/// States per block.
pub const BLOCK_LEN: usize = 1 << BLOCK_BITS;

/// The payload of [`ExecMode::Parallel`]. It carries no setting: the block
/// length is a constant and parallelism follows from the block count. The
/// type stays so callers that destructure `ExecMode::Parallel(par)` and
/// pass `par` on keep compiling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParConfig;

/// Where the blocks of a lattice pass run. Both modes give the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Every block inline on the calling thread.
    Serial,
    /// Blocks on rayon when the lattice has at least two of them, inline
    /// otherwise.
    Parallel(ParConfig),
}

impl ExecMode {
    fn on_rayon(self, len: usize) -> bool {
        matches!(self, ExecMode::Parallel(_)) && len > BLOCK_LEN
    }

    /// Run `kernel(block, base)` once per block of `probs` (`base` is the
    /// global state index of the block's first slot) and fold the partials
    /// in ascending block order, starting from block 0's.
    ///
    /// # Panics
    /// Panics if `probs` is empty: a lattice has at least one state.
    pub fn fold<T: Send>(
        self,
        probs: &[f64],
        kernel: impl Fn(&[f64], u64) -> T + Sync,
        combine: impl FnMut(T, T) -> T,
    ) -> T {
        let partials: Vec<T> = if self.on_rayon(probs.len()) {
            probs
                .par_chunks(BLOCK_LEN)
                .enumerate()
                .map(|(i, block)| kernel(block, base_of(i)))
                .collect()
        } else {
            probs
                .chunks(BLOCK_LEN)
                .enumerate()
                .map(|(i, block)| kernel(block, base_of(i)))
                .collect()
        };
        fold_in_order(partials, combine)
    }

    /// [`Self::fold`] over a pass that writes its block.
    pub fn fold_mut<T: Send>(
        self,
        probs: &mut [f64],
        kernel: impl Fn(&mut [f64], u64) -> T + Sync,
        combine: impl FnMut(T, T) -> T,
    ) -> T {
        let partials: Vec<T> = if self.on_rayon(probs.len()) {
            probs
                .par_chunks_mut(BLOCK_LEN)
                .enumerate()
                .map(|(i, block)| kernel(block, base_of(i)))
                .collect()
        } else {
            probs
                .chunks_mut(BLOCK_LEN)
                .enumerate()
                .map(|(i, block)| kernel(block, base_of(i)))
                .collect()
        };
        fold_in_order(partials, combine)
    }
}

fn base_of(block: usize) -> u64 {
    (block as u64) << BLOCK_BITS
}

fn fold_in_order<T>(partials: Vec<T>, combine: impl FnMut(T, T) -> T) -> T {
    partials
        .into_iter()
        .reduce(combine)
        .expect("a lattice has at least one block")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_fold_in_ascending_order_from_block_zero() {
        let probs = vec![0.0f64; 3 * BLOCK_LEN + 5];
        for exec in [ExecMode::Serial, ExecMode::Parallel(ParConfig)] {
            let bases = exec.fold(
                &probs,
                |block, base| vec![(base, block.len())],
                |mut a, b| {
                    a.extend(b);
                    a
                },
            );
            assert_eq!(
                bases,
                [
                    (0, BLOCK_LEN),
                    (BLOCK_LEN as u64, BLOCK_LEN),
                    (2 * BLOCK_LEN as u64, BLOCK_LEN),
                    (3 * BLOCK_LEN as u64, 5)
                ]
            );
        }
    }

    #[test]
    fn a_single_block_is_the_whole_array() {
        let mut probs = vec![1.0f64; BLOCK_LEN];
        let seen = ExecMode::Parallel(ParConfig).fold_mut(
            &mut probs,
            |block, base| (base, block.len()),
            |_, _| unreachable!("one block has nothing to combine"),
        );
        assert_eq!(seen, (0, BLOCK_LEN));
    }
}
