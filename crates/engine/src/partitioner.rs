//! Contiguous partitioning, and the hash the chaos layer draws faults with.
//!
//! Datasets are split into contiguous partitions by [`partition_ranges`].
//! [`FxHasher`] is the FxHash multiplication-based mixing function (fast,
//! adequate quality for in-process use; HashDoS resistance is irrelevant
//! here): seeded fault plans hash `(seed, stage, seq, task)` with it.

use std::hash::Hasher;
use std::ops::Range;

/// Split `len` items into `parts` contiguous ranges whose sizes differ by at
/// most one. Returns exactly `parts` ranges (possibly empty trailing ones
/// when `len < parts`).
///
/// The first `len % parts` ranges get one extra element, which keeps the
/// longest-partition length minimal — the property that bounds stage wall
/// time in a barrier-synchronized dataflow.
pub fn partition_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1);
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// FxHash: the rustc hash function (multiply + rotate mixing).
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    #[test]
    fn ranges_cover_exactly() {
        for len in [0usize, 1, 7, 16, 100, 1023] {
            for parts in [1usize, 2, 3, 8, 50] {
                let ranges = partition_ranges(len, parts);
                assert_eq!(ranges.len(), parts);
                let mut expected_start = 0;
                for r in &ranges {
                    assert_eq!(r.start, expected_start);
                    expected_start = r.end;
                }
                assert_eq!(expected_start, len);
                let sizes: Vec<_> = ranges.iter().map(|r| r.len()).collect();
                let max = sizes.iter().max().unwrap();
                let min = sizes.iter().min().unwrap();
                assert!(max - min <= 1, "balanced: {sizes:?}");
            }
        }
    }

    #[test]
    fn zero_parts_clamps() {
        let ranges = partition_ranges(10, 0);
        assert_eq!(ranges.len(), 1);
        assert_eq!(ranges[0], 0..10);
    }

    #[test]
    fn fxhasher_is_deterministic() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        "hello world".hash(&mut a);
        "hello world".hash(&mut b);
        assert_eq!(a.finish(), b.finish());
    }
}
