//! Disabled-telemetry overhead bound, by decomposition.
//!
//! Tracing off must cost ≤ ~2% of a fused BHA round. An A/B wall-clock
//! comparison of two full runs is hopelessly noisy at that resolution on
//! shared CI hardware, so this measures the two factors directly:
//!
//! 1. the cost of one disabled instrumentation hook (an atomic load and
//!    a compare — what every `enabled_at` site pays when recording is
//!    off), amortized over millions of calls, and
//! 2. the wall time of one fused round on a realistically-sized lattice,
//!
//! then asserts `hooks_per_round × hook_cost ≤ 2% × round_time` with a
//! generous hook budget (64 per round; the real loop has well under 20:
//! two in `run_stage`, a handful in the session and service loops, and
//! zero per task — the per-task context is `None` when disabled).
//!
//! Meaningless under an unoptimized build, so it skips in debug profiles;
//! `make obs-smoke` runs it with `--release`.

use std::hint::black_box;
use std::time::Instant;

use sbgt::{SbgtConfig, ShardedSession};
use sbgt_bayes::Prior;
use sbgt_engine::obs::TraceLevel;
use sbgt_engine::{Engine, EngineConfig, ObsConfig};
use sbgt_lattice::State;
use sbgt_response::BinaryDilutionModel;

/// Hooks charged to one round — a deliberate overestimate.
const HOOKS_PER_ROUND: u64 = 64;
const HOOK_SAMPLES: u64 = 4_000_000;

#[test]
fn disabled_tracing_costs_under_two_percent_of_a_round() {
    if cfg!(debug_assertions) {
        eprintln!("skipping: overhead bound is only meaningful in release builds");
        return;
    }

    let e = Engine::new(
        EngineConfig::default()
            .with_threads(2)
            .with_obs(ObsConfig::off()),
    );

    // Factor 1: the disabled hook. `enabled_at` on an off recorder is the
    // exact branch every instrumentation site takes when tracing is off.
    let rec = e.obs();
    let start = Instant::now();
    let mut live = 0u64;
    for _ in 0..HOOK_SAMPLES {
        if black_box(rec.enabled_at(black_box(TraceLevel::Spans))) {
            live += 1;
        }
    }
    let hook_ns = start.elapsed().as_nanos() as f64 / HOOK_SAMPLES as f64;
    assert_eq!(live, 0, "recorder must be off");

    // Factor 2: one fused round on a 2^14-state lattice.
    let n = 14usize;
    let risks: Vec<f64> = (0..n).map(|i| 0.02 + 0.015 * (i as f64)).collect();
    let truth = State::from_subjects([3usize, 9]);
    let mut session = ShardedSession::new(
        &e,
        Prior::from_risks(&risks),
        BinaryDilutionModel::pcr_like(),
        SbgtConfig::default(),
        4,
    );
    let mut rounds = 0u32;
    let start = Instant::now();
    while rounds < 6 {
        if session
            .run_round(&e, |pool| truth.intersects(pool))
            .finished()
            .is_some()
        {
            break;
        }
        rounds += 1;
    }
    assert!(rounds > 0, "cohort classified before any round was timed");
    let round_ns = start.elapsed().as_nanos() as f64 / f64::from(rounds);

    let overhead = HOOKS_PER_ROUND as f64 * hook_ns;
    let ratio = overhead / round_ns;
    eprintln!(
        "hook {hook_ns:.2}ns × {HOOKS_PER_ROUND} = {overhead:.0}ns \
         vs round {round_ns:.0}ns → {:.4}%",
        ratio * 100.0
    );
    assert!(
        ratio <= 0.02,
        "disabled tracing costs {:.3}% of a fused round (budget 2%)",
        ratio * 100.0
    );
}
