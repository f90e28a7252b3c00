//! 2D array testing — the other classical non-adaptive comparator.
//!
//! Samples are arranged in an `r × c` grid; every row pool and every
//! column pool is tested in one stage. A sample is suspected iff its row
//! *and* its column both read positive; suspects are retested individually
//! in stage two. Array testing was widely deployed for COVID-19 screening
//! (it is non-adaptive within a stage, like Dorfman, but uses the grid
//! geometry to localize positives with fewer retests at moderate
//! prevalence) — another anchor for the efficiency experiments.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sbgt_bayes::{CohortClassification, SubjectStatus};
use sbgt_lattice::State;
use sbgt_response::BinaryOutcomeModel;

use crate::comparators::EpisodeResult;
use crate::metrics::{ConfusionMatrix, EpisodeStats};
use crate::outcome::run_test;
use crate::population::Population;

/// Run two-stage array testing on an `rows × cols` grid.
///
/// Subjects are assigned to grid cells row-major: subject `i` sits at
/// `(i / cols, i % cols)`. A ragged final row is supported; empty row or
/// column pools are skipped. Subjects whose row or column pool reads
/// negative are classified negative; suspects (both pools positive) are
/// retested individually.
///
/// # Panics
/// Panics when `rows == 0 || cols == 0` or the grid is smaller than the
/// cohort.
pub fn run_array_testing<M: BinaryOutcomeModel>(
    population: &Population,
    model: &M,
    rows: usize,
    cols: usize,
    seed: u64,
) -> EpisodeResult {
    assert!(rows >= 1 && cols >= 1, "grid must be non-empty");
    let n = population.n_subjects();
    assert!(
        rows * cols >= n,
        "grid {rows}x{cols} too small for {n} subjects"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut history = Vec::new();

    // Build row and column pools.
    let mut row_pools = vec![State::EMPTY; rows];
    let mut col_pools = vec![State::EMPTY; cols];
    for i in 0..n {
        row_pools[i / cols] = row_pools[i / cols].with(i);
        col_pools[i % cols] = col_pools[i % cols].with(i);
    }

    // Stage 1: all row and column pools (skipping empty ones).
    let mut row_positive = vec![false; rows];
    let mut col_positive = vec![false; cols];
    for (r, pool) in row_pools.iter().enumerate() {
        if !pool.is_empty() {
            let outcome = run_test(population, model, *pool, &mut rng);
            history.push((*pool, outcome));
            row_positive[r] = outcome;
        }
    }
    for (c, pool) in col_pools.iter().enumerate() {
        if !pool.is_empty() {
            let outcome = run_test(population, model, *pool, &mut rng);
            history.push((*pool, outcome));
            col_positive[c] = outcome;
        }
    }

    // Stage 2: retest intersections of positive rows and columns.
    let mut statuses = vec![SubjectStatus::Negative; n];
    let mut marginals = vec![0.0f64; n];
    let mut any_retest = false;
    for i in 0..n {
        if row_positive[i / cols] && col_positive[i % cols] {
            any_retest = true;
            let single = State::EMPTY.with(i);
            let outcome = run_test(population, model, single, &mut rng);
            history.push((single, outcome));
            statuses[i] = if outcome {
                SubjectStatus::Positive
            } else {
                SubjectStatus::Negative
            };
            marginals[i] = if outcome { 1.0 } else { 0.0 };
        }
    }

    let classification = CohortClassification { statuses };
    EpisodeResult {
        stats: EpisodeStats {
            tests: history.len(),
            stages: if any_retest { 2 } else { 1 },
            subjects: n,
        },
        confusion: ConfusionMatrix::from_statuses(&classification.statuses, population.truth()),
        classification,
        marginals,
        history,
    }
}

/// A square-ish grid for `n` subjects: `ceil(sqrt(n))` columns.
pub fn square_grid(n: usize) -> (usize, usize) {
    let cols = (n as f64).sqrt().ceil() as usize;
    let rows = n.div_ceil(cols.max(1));
    (rows.max(1), cols.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::RiskProfile;
    use sbgt_response::BinaryDilutionModel;

    #[test]
    fn single_positive_found_with_row_col_and_one_retest() {
        // 3x3 grid, subject 4 positive (row 1, col 1): 3 rows + 3 cols +
        // 1 retest = 7 tests.
        let profile = RiskProfile::Flat { n: 9, p: 0.1 };
        let pop = Population::with_truth(&profile, State::from_subjects([4]));
        let model = BinaryDilutionModel::perfect();
        let r = run_array_testing(&pop, &model, 3, 3, 1);
        assert_eq!(r.stats.tests, 7);
        assert_eq!(r.stats.stages, 2);
        assert_eq!(r.confusion.tp, 1);
        assert_eq!(r.confusion.tn, 8);
        assert_eq!(r.confusion.fp + r.confusion.fn_, 0);
    }

    #[test]
    fn all_negative_needs_only_stage_one() {
        let profile = RiskProfile::Flat { n: 9, p: 0.1 };
        let pop = Population::with_truth(&profile, State::EMPTY);
        let model = BinaryDilutionModel::perfect();
        let r = run_array_testing(&pop, &model, 3, 3, 1);
        assert_eq!(r.stats.tests, 6);
        assert_eq!(r.stats.stages, 1);
        assert_eq!(r.confusion.tn, 9);
    }

    #[test]
    fn two_positives_same_row() {
        // Positives at (0,0) and (0,2): row 0 positive, cols 0 and 2
        // positive -> suspects are exactly those two cells (row 1/2
        // negative kills the other intersections).
        let profile = RiskProfile::Flat { n: 9, p: 0.1 };
        let pop = Population::with_truth(&profile, State::from_subjects([0, 2]));
        let model = BinaryDilutionModel::perfect();
        let r = run_array_testing(&pop, &model, 3, 3, 5);
        assert_eq!(r.confusion.tp, 2);
        assert_eq!(r.confusion.fp + r.confusion.fn_, 0);
        // 6 stage-1 pools + 2 retests.
        assert_eq!(r.stats.tests, 8);
    }

    #[test]
    fn ragged_grid_handles_partial_last_row() {
        let profile = RiskProfile::Flat { n: 7, p: 0.1 };
        let pop = Population::with_truth(&profile, State::from_subjects([6]));
        let model = BinaryDilutionModel::perfect();
        let (rows, cols) = square_grid(7);
        assert_eq!((rows, cols), (3, 3));
        let r = run_array_testing(&pop, &model, rows, cols, 2);
        assert!(r.classification.is_terminal());
        assert_eq!(r.confusion.tp, 1);
        assert_eq!(r.confusion.total(), 7);
    }

    #[test]
    fn square_grid_shapes() {
        assert_eq!(square_grid(1), (1, 1));
        assert_eq!(square_grid(4), (2, 2));
        assert_eq!(square_grid(16), (4, 4));
        assert_eq!(square_grid(17), (4, 5));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn grid_size_validated() {
        let profile = RiskProfile::Flat { n: 10, p: 0.1 };
        let pop = Population::with_truth(&profile, State::EMPTY);
        let model = BinaryDilutionModel::perfect();
        let _ = run_array_testing(&pop, &model, 3, 3, 0);
    }

    #[test]
    fn array_saves_over_individual_and_localizes_retests() {
        // Array vs Dorfman is regime-dependent with thin margins (their
        // expected costs differ by a few percent at these sizes), so the
        // robust claims are: (a) array clearly beats individual testing at
        // moderate prevalence, and (b) its stage-2 retest count stays near
        // the number of suspect intersections rather than whole pools.
        let profile = RiskProfile::Flat { n: 16, p: 0.1 };
        let model = BinaryDilutionModel::perfect();
        let mut array_tests = 0usize;
        let mut retests = 0usize;
        let mut positives = 0usize;
        let reps = 30;
        for seed in 0..reps {
            let pop = Population::sample(&profile, 900 + seed);
            let r = run_array_testing(&pop, &model, 4, 4, seed);
            assert_eq!(
                r.confusion.fp + r.confusion.fn_,
                0,
                "perfect assay must be exact"
            );
            array_tests += r.stats.tests;
            retests += r.stats.tests - 8; // 8 stage-1 pools on a 4x4 grid
            positives += pop.n_positive();
        }
        assert!(
            array_tests < reps as usize * 16,
            "array {array_tests} !< individual {}",
            reps * 16
        );
        // Geometric localization: averaged over cohorts, retests stay
        // within a small factor of the true positive count (Dorfman with
        // g=4 would retest 4 per positive pool).
        assert!(
            retests <= positives * 3 + reps as usize,
            "retests {retests} vs positives {positives}"
        );
    }
}
