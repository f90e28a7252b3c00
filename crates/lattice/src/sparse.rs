//! Sparse (pruned) posterior representation.
//!
//! After a handful of informative pooled tests, posterior mass concentrates
//! on a tiny fraction of the `2^N` states. HiBGT (HiPC '22) exploits this by
//! pruning states whose normalized mass falls below a threshold `ε`, turning
//! the exponential lattice into a working set that fits cache. This module
//! reproduces that representation; experiment E10 measures the
//! time/accuracy trade-off of the threshold.
//!
//! Entries are kept sorted by state index and unique, so dense ↔ sparse
//! conversions and merges are linear.

use crate::blocks::ExecMode;
use crate::dense::{
    entropy_of, first_pos, normalize_marginals, order_tables, suffix_sums, DensePosterior,
};
use crate::hybrid::keeps;
use crate::state::State;

/// Pruned posterior: explicit `(state, mass)` entries, sorted by state
/// index, plus a record of the total mass discarded by pruning so callers
/// can bound the approximation error.
#[derive(Debug, Clone, PartialEq)]
pub struct SparsePosterior {
    n_subjects: usize,
    entries: Vec<(State, f64)>,
    pruned_mass: f64,
}

impl SparsePosterior {
    /// Build from explicit entries. Entries are sorted and must contain no
    /// duplicate states.
    ///
    /// # Panics
    /// Panics on duplicate states or states out of range for `n`.
    pub fn from_entries(n: usize, mut entries: Vec<(State, f64)>) -> Self {
        let limit = crate::num_states(n) as u64;
        entries.sort_unstable_by_key(|(s, _)| s.bits());
        for w in entries.windows(2) {
            assert!(w[0].0 != w[1].0, "duplicate state {}", w[0].0);
        }
        if let Some((s, _)) = entries.last() {
            assert!(s.bits() < limit, "state {s} out of range for n={n}");
        }
        SparsePosterior {
            n_subjects: n,
            entries,
            pruned_mass: 0.0,
        }
    }

    /// Rebuild from checkpointed parts: retained entries (validated and
    /// sorted exactly like [`Self::from_entries`]) plus the recorded pruned
    /// mass, so a snapshot restore reproduces the live posterior bit for
    /// bit — including the conservation invariant
    /// `total() + pruned_mass() == 1` a long-running session maintains.
    ///
    /// # Panics
    /// Panics on duplicate states or states out of range for `n`.
    pub fn from_parts(n: usize, entries: Vec<(State, f64)>, pruned_mass: f64) -> Self {
        let mut s = Self::from_entries(n, entries);
        s.pruned_mass = pruned_mass;
        s
    }

    /// Convert from dense, dropping states whose share of the total mass is
    /// `< epsilon`. `epsilon = 0.0` keeps every state with positive mass.
    pub fn from_dense(dense: &DensePosterior, epsilon: f64) -> Self {
        let keep = keeps(dense.total(), epsilon);
        let (entries, pruned) = ExecMode::Serial.fold(
            dense.probs(),
            |block, base| {
                let mut entries = Vec::new();
                let mut pruned = 0.0;
                for (s, &p) in (base..).zip(block) {
                    if keep(p) {
                        entries.push((State(s), p));
                    } else {
                        pruned += p;
                    }
                }
                (entries, pruned)
            },
            |(mut entries, pruned), (more, p)| {
                entries.extend(more);
                (entries, pruned + p)
            },
        );
        SparsePosterior {
            n_subjects: dense.n_subjects(),
            entries,
            pruned_mass: pruned,
        }
    }

    /// Expand to the dense representation (pruned states get zero mass).
    pub fn to_dense(&self) -> DensePosterior {
        let mut probs = vec![0.0; crate::num_states(self.n_subjects)];
        for &(s, p) in &self.entries {
            probs[s.index()] = p;
        }
        DensePosterior::from_probs(self.n_subjects, probs)
    }

    /// Cohort size `N`.
    pub fn n_subjects(&self) -> usize {
        self.n_subjects
    }

    /// Number of retained states (the working-set size).
    pub fn support(&self) -> usize {
        self.entries.len()
    }

    /// Mass discarded by pruning since construction (unnormalized units of
    /// the posterior at the time of each prune).
    pub fn pruned_mass(&self) -> f64 {
        self.pruned_mass
    }

    /// Borrow the entries, sorted by state index.
    pub fn entries(&self) -> &[(State, f64)] {
        &self.entries
    }

    /// Mass of one state (zero when pruned).
    pub fn get(&self, s: State) -> f64 {
        match self
            .entries
            .binary_search_by_key(&s.bits(), |(t, _)| t.bits())
        {
            Ok(i) => self.entries[i].1,
            Err(_) => 0.0,
        }
    }

    /// Total retained mass.
    pub fn total(&self) -> f64 {
        self.entries.iter().map(|(_, p)| p).sum()
    }

    /// Normalize retained mass to 1; returns `Z`, or `None` when degenerate.
    pub fn try_normalize(&mut self) -> Option<f64> {
        let z = self.total();
        if !(z.is_finite() && z > 0.0) {
            return None;
        }
        let inv = 1.0 / z;
        for (_, p) in &mut self.entries {
            *p *= inv;
        }
        Some(z)
    }

    /// Rescale the retained entries so `total() + pruned_mass() == 1` — the
    /// conservation invariant a long-running pruned session maintains
    /// between rounds. Unlike [`Self::try_normalize`], which forces the
    /// retained mass alone to 1 (and thereby silently inflates the pruned
    /// share back into the retained states), this keeps the pruned record in
    /// the *same units* as the retained vector across arbitrarily many
    /// update→prune cycles. Returns the retained mass before scaling, or
    /// `None` when degenerate (empty/zero/non-finite retained mass, or
    /// `pruned_mass >= 1`).
    pub fn renormalize_retained(&mut self) -> Option<f64> {
        let z = self.total();
        let target = 1.0 - self.pruned_mass;
        if !(z.is_finite() && z > 0.0) || target <= 0.0 {
            return None;
        }
        let scale = target / z;
        for (_, p) in &mut self.entries {
            *p *= scale;
        }
        Some(z)
    }

    /// Multiply each retained state's mass by `table[|s ∩ pool|]` and return
    /// the new total (fused pass, like the dense kernel).
    pub fn mul_likelihood_fused(&mut self, pool: State, table: &[f64]) -> f64 {
        assert!(
            table.len() > pool.rank() as usize,
            "likelihood table too short"
        );
        let mut total = 0.0;
        for (s, p) in &mut self.entries {
            *p *= table[s.positives_in(pool) as usize];
            total += *p;
        }
        total
    }

    /// Drop retained states whose share of the retained mass is `< epsilon`;
    /// returns the mass discarded by this call (also added to
    /// [`Self::pruned_mass`]).
    pub fn prune(&mut self, epsilon: f64) -> f64 {
        let total = self.total();
        if total <= 0.0 {
            return 0.0;
        }
        let cut = epsilon * total;
        let mut dropped = 0.0;
        self.entries.retain(|&(_, p)| {
            if p > cut {
                true
            } else {
                dropped += p;
                false
            }
        });
        self.pruned_mass += dropped;
        dropped
    }

    /// Posterior marginals over retained mass (normalized by retained total).
    pub fn marginals(&self) -> Vec<f64> {
        let mut acc = vec![0.0f64; self.n_subjects];
        let mut total = 0.0;
        for &(s, p) in &self.entries {
            total += p;
            for b in s.subjects() {
                acc[b] += p;
            }
        }
        normalize_marginals(&mut acc, total);
        acc
    }

    /// Mass of the pool-negative set among retained states.
    pub fn pool_negative_mass(&self, pool: State) -> f64 {
        self.entries
            .iter()
            .filter(|(s, _)| !s.intersects(pool))
            .map(|(_, p)| p)
            .sum()
    }

    /// Prefix pool-negative masses (see
    /// [`DensePosterior::prefix_negative_masses`]); same histogram method
    /// over the retained states only.
    pub fn prefix_negative_masses(&self, order: &[usize]) -> Vec<f64> {
        let tables = order_tables(self.n_subjects, order);
        let mut hist = vec![0.0f64; order.len() + 1];
        for &(s, p) in &self.entries {
            hist[first_pos(&tables, s.bits()) as usize] += p;
        }
        suffix_sums(&hist)
    }

    /// Shannon entropy (nats) of the retained, normalized posterior.
    pub fn entropy(&self) -> f64 {
        let mut sum_plogp = 0.0;
        for &(_, p) in &self.entries {
            if p > 0.0 {
                sum_plogp += p * p.ln();
            }
        }
        entropy_of(self.total(), sum_plogp)
    }

    /// MAP state among retained states and its normalized probability
    /// (the smallest state among tied maxima). `None` when the support is
    /// empty.
    pub fn map_state(&self) -> Option<(State, f64)> {
        let z = self.total();
        self.entries
            .iter()
            .min_by(|(_, a), (_, b)| b.total_cmp(a))
            .map(|&(s, p)| (s, if z > 0.0 { p / z } else { 0.0 }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::State;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    fn example_dense() -> DensePosterior {
        DensePosterior::from_risks(&[0.3, 0.05, 0.5, 0.12])
    }

    #[test]
    fn roundtrip_without_pruning() {
        let d = example_dense();
        let s = SparsePosterior::from_dense(&d, 0.0);
        let back = s.to_dense();
        for (a, b) in d.probs().iter().zip(back.probs()) {
            assert_close(*a, *b);
        }
        assert_eq!(s.pruned_mass(), 0.0);
    }

    #[test]
    fn pruning_drops_small_states() {
        let d = example_dense();
        let s = SparsePosterior::from_dense(&d, 0.01);
        assert!(s.support() < d.len());
        assert!(s.pruned_mass() > 0.0);
        // Retained + pruned = original total.
        assert_close(s.total() + s.pruned_mass(), d.total());
    }

    #[test]
    fn sparse_ops_agree_with_dense_when_unpruned() {
        let d = example_dense();
        let s = SparsePosterior::from_dense(&d, 0.0);
        assert_close(s.total(), d.total());
        assert_close(s.entropy(), d.entropy());
        let pool = State::from_subjects([0, 2]);
        assert_close(s.pool_negative_mass(pool), d.pool_negative_mass(pool));
        for (a, b) in s.marginals().iter().zip(d.marginals()) {
            assert_close(*a, b);
        }
        let order = [2usize, 0, 3, 1];
        for (a, b) in s
            .prefix_negative_masses(&order)
            .iter()
            .zip(d.prefix_negative_masses(&order))
        {
            assert_close(*a, b);
        }
        let (ms, mp) = s.map_state().unwrap();
        let (dms, dmp) = d.map_state();
        assert_eq!(ms, dms);
        assert_close(mp, dmp);
    }

    #[test]
    fn mul_likelihood_fused_matches_dense() {
        let mut d = example_dense();
        let mut s = SparsePosterior::from_dense(&d, 0.0);
        let pool = State::from_subjects([1, 2, 3]);
        let table = [0.97, 0.4, 0.25, 0.15];
        let td = d.mul_likelihood_fused(pool, &table);
        let ts = s.mul_likelihood_fused(pool, &table);
        assert_close(td, ts);
        for &(st, p) in s.entries() {
            assert_close(p, d.get(st));
        }
    }

    #[test]
    fn prune_returns_dropped_mass() {
        let d = example_dense();
        let mut s = SparsePosterior::from_dense(&d, 0.0);
        let before = s.total();
        let dropped = s.prune(0.02);
        assert!(dropped > 0.0);
        assert_close(s.total() + dropped, before);
        assert_close(s.pruned_mass(), dropped);
        // Second prune with same epsilon may drop more (threshold is
        // relative to the reduced total) but never goes negative.
        let dropped2 = s.prune(0.02);
        assert!(dropped2 >= 0.0);
    }

    #[test]
    fn get_on_pruned_state_is_zero() {
        let d = example_dense();
        let s = SparsePosterior::from_dense(&d, 0.05);
        let full = State::from_subjects([0, 1, 2, 3]);
        // The all-positive state has tiny prior mass under these risks.
        assert_eq!(s.get(full), 0.0);
    }

    #[test]
    fn normalize_degenerate() {
        let mut s = SparsePosterior::from_entries(3, vec![]);
        assert!(s.try_normalize().is_none());
        assert_eq!(s.map_state(), None);
        assert_eq!(s.entropy(), 0.0);
        assert_eq!(s.marginals(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn map_state_keeps_the_first_of_tied_maxima() {
        let s = SparsePosterior::from_entries(
            3,
            vec![(State(6), 0.4), (State(2), 0.4), (State(1), 0.2)],
        );
        assert_eq!(s.map_state().unwrap().0, State(2));
        let d = DensePosterior::new_uniform(3);
        assert_eq!(d.map_state().0, State(0));
        assert_eq!(
            SparsePosterior::from_dense(&d, 0.0).map_state().unwrap().0,
            State(0)
        );
    }

    #[test]
    #[should_panic(expected = "duplicate state")]
    fn from_entries_rejects_duplicates() {
        let _ = SparsePosterior::from_entries(2, vec![(State(1), 0.5), (State(1), 0.5)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_entries_rejects_out_of_range() {
        let _ = SparsePosterior::from_entries(2, vec![(State(7), 0.5)]);
    }

    #[test]
    fn from_parts_restores_pruned_mass_bit_exact() {
        let d = example_dense();
        let mut s = SparsePosterior::from_dense(&d, 0.0);
        s.prune(0.02);
        let restored =
            SparsePosterior::from_parts(s.n_subjects(), s.entries().to_vec(), s.pruned_mass());
        assert_eq!(restored, s);
    }

    #[test]
    fn from_entries_sorts() {
        let s = SparsePosterior::from_entries(3, vec![(State(5), 0.2), (State(1), 0.8)]);
        assert_eq!(s.entries()[0].0, State(1));
        assert_close(s.get(State(5)), 0.2);
    }
}
