//! Workload builders, timing helpers and table rendering for the
//! `experiments` binary, which regenerates every reconstructed
//! table/figure (E1–E12). Performance numbers outside those rows come
//! from `benchmark/` (`BENCHMARK.json`), not from this crate.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use sbgt_bayes::Prior;
use sbgt_lattice::State;

/// Deterministic heterogeneous risk vector for a cohort of `n`: risks span
/// roughly `[0.005, 0.18]` in a fixed pseudo-random order. Matches the
/// mixed-risk surveillance regime of the paper's workloads.
pub fn bench_risks(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((s >> 33) as f64) / ((1u64 << 31) as f64);
            0.005 + 0.175 * u
        })
        .collect()
}

/// The prior over [`bench_risks`].
pub fn bench_prior(n: usize, seed: u64) -> Prior {
    Prior::from_risks(&bench_risks(n, seed))
}

/// A deterministic script of pooled observations for warming a posterior
/// into a non-trivial shape before measuring kernels: alternating
/// negative/positive outcomes on rolling pools.
pub fn observation_script(n: usize, count: usize) -> Vec<(State, bool)> {
    (0..count)
        .map(|t| {
            let width = 2 + (t % 4);
            let subjects: Vec<usize> = (0..width).map(|j| (t * 3 + j * 5) % n).collect();
            let pool = State::from_subjects(dedup(subjects));
            (pool, t % 2 == 0)
        })
        .collect()
}

fn dedup(mut v: Vec<usize>) -> Vec<usize> {
    v.sort_unstable();
    v.dedup();
    v
}

/// Time `f`, returning its result and the wall duration.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Best-of-`reps` wall time of `f` (minimum is the standard low-noise
/// estimator for compute-bound kernels).
pub fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    assert!(reps >= 1);
    let (mut out, mut best) = timed(&mut f);
    for _ in 1..reps {
        let (o, d) = timed(&mut f);
        if d < best {
            best = d;
            out = o;
        }
    }
    (out, best)
}

/// Render a markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "| {} |", headers.join(" | "));
    let _ = writeln!(
        out,
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    out
}

/// Format a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

/// Speedup string `a / b` guarding division by ~zero.
pub fn fmt_speedup(baseline: Duration, fast: Duration) -> String {
    let f = fast.as_secs_f64();
    if f <= 0.0 {
        return "inf".to_string();
    }
    format!("{:.1}x", baseline.as_secs_f64() / f)
}

/// A posterior warmed into a non-trivial shape by six scripted pooled
/// observations (the SBGT side of E2–E4, E10 and E12).
pub fn warmed_posterior(n: usize) -> sbgt_lattice::DensePosterior {
    use sbgt_bayes::{update_dense, Observation};
    let model = sbgt_response::BinaryDilutionModel::pcr_like();
    let mut post = bench_prior(n, 7).to_dense();
    for (pool, outcome) in observation_script(n, 6) {
        let _ = update_dense(&mut post, &model, &Observation::new(pool, outcome));
    }
    post
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn risks_are_valid_and_deterministic() {
        let a = bench_risks(20, 3);
        let b = bench_risks(20, 3);
        assert_eq!(a, b);
        assert!(a.iter().all(|&p| p > 0.0 && p < 1.0));
        let c = bench_risks(20, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn script_pools_are_valid() {
        for (pool, _) in observation_script(10, 25) {
            assert!(!pool.is_empty());
            assert!(pool.is_subset_of(State::full(10)));
        }
    }

    #[test]
    fn prior_builds() {
        assert_eq!(bench_prior(8, 0).n_subjects(), 8);
    }

    #[test]
    fn table_renders() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00 ms");
        assert_eq!(fmt_duration(Duration::from_micros(7)), "7.0 µs");
        assert_eq!(
            fmt_speedup(Duration::from_secs(2), Duration::from_secs(1)),
            "2.0x"
        );
    }

    #[test]
    fn best_of_returns_min() {
        let mut calls = 0;
        let (_, d) = best_of(3, || {
            calls += 1;
        });
        assert_eq!(calls, 3);
        assert!(d <= Duration::from_secs(1));
    }
}
