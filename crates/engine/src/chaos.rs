//! Deterministic fault injection — the engine's chaos layer.
//!
//! Long surveillance runs are exactly the workloads where mid-run loss is
//! costliest, so the one recovery mechanism — the service's pre-round
//! snapshot and replay — must be provable. This module supplies the
//! adversary: a [`FaultPlan`] schedules task panics, injected delays
//! (stragglers), and poisoned partition results at exact `(stage, task)`
//! coordinates, or draws them from a seeded [`ChaosConfig`] so whole fault
//! campaigns replay bit-for-bit.
//!
//! # Determinism
//!
//! A fault fires purely as a function of `(plan, stage name, stage
//! sequence number, task index)`. The stage sequence number is the
//! engine's count of launched stages, so a single-driver program replays
//! the same faults on every run with the same plan — executor scheduling
//! cannot perturb them. A task runs once: an injected panic or poison
//! fails its stage, and a stage either returns the fault-free values or
//! fails. A replayed round runs under fresh sequence numbers, so it draws
//! a fresh schedule.

use std::hash::Hasher as _;
use std::time::Duration;

use crate::partitioner::FxHasher;

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The task panics instead of running its body (an executor dying
    /// mid-task).
    Panic,
    /// The task sleeps for the given duration before running its body — a
    /// straggler. It changes no value.
    Delay(Duration),
    /// The task body runs to completion but its result is discarded and
    /// the task counts as failed — a corrupted partition result caught by
    /// verification.
    Poison,
}

/// Seeded random fault campaign: per-coordinate rates, all decided by
/// hashing `(seed, stage, stage-seq, task)` — no RNG state, fully
/// reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the per-coordinate hash.
    pub seed: u64,
    /// Probability a task panics.
    pub panic_rate: f64,
    /// Probability a task is delayed by [`Self::delay`].
    pub delay_rate: f64,
    /// Probability a task's result is poisoned.
    pub poison_rate: f64,
    /// Injected straggler delay.
    pub delay: Duration,
}

impl ChaosConfig {
    /// A quiet campaign with the given seed (all rates zero).
    pub fn new(seed: u64) -> Self {
        ChaosConfig {
            seed,
            panic_rate: 0.0,
            delay_rate: 0.0,
            poison_rate: 0.0,
            delay: Duration::from_millis(5),
        }
    }

    /// Set the panic rate.
    pub fn with_panic_rate(mut self, rate: f64) -> Self {
        self.panic_rate = rate;
        self
    }

    /// Set the straggler rate and injected delay.
    pub fn with_delay_rate(mut self, rate: f64, delay: Duration) -> Self {
        self.delay_rate = rate;
        self.delay = delay;
        self
    }

    /// Set the poisoned-result rate.
    pub fn with_poison_rate(mut self, rate: f64) -> Self {
        self.poison_rate = rate;
        self
    }

    fn fault_for(&self, stage: &str, seq: u64, task: usize) -> Option<Fault> {
        let mut h = FxHasher::default();
        h.write_u64(self.seed);
        h.write(stage.as_bytes());
        h.write_u64(seq);
        h.write_usize(task);
        // FxHasher's last step is one multiply, so adjacent task indices
        // leave final states a small multiple of one constant apart and
        // their [0, 1) draws correlate. Avalanche (splitmix64 finalizer) so
        // every coordinate draws independently.
        let mut x = h.finish();
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        // Top 53 bits -> uniform in [0, 1).
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        if u < self.panic_rate {
            Some(Fault::Panic)
        } else if u < self.panic_rate + self.delay_rate {
            Some(Fault::Delay(self.delay))
        } else if u < self.panic_rate + self.delay_rate + self.poison_rate {
            Some(Fault::Poison)
        } else {
            None
        }
    }
}

/// A scheduled fault pinned to exact coordinates. Matches every occurrence
/// of the named stage (the stage sequence number is not part of the key),
/// so a plan written against stage names is stable under code that runs
/// the same stage many times.
#[derive(Debug, Clone)]
struct ScheduledFault {
    stage: String,
    task: usize,
    fault: Fault,
}

/// A deterministic fault schedule for an [`crate::Engine`].
///
/// Combines exact scheduled faults (first match wins) with an optional
/// seeded random campaign. Install with [`crate::Engine::set_fault_plan`];
/// while a plan is installed the service snapshots each cohort before a
/// round so a killed round can be rolled back.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    scheduled: Vec<ScheduledFault>,
    chaos: Option<ChaosConfig>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// A plan driven entirely by a seeded random campaign.
    pub fn seeded(chaos: ChaosConfig) -> Self {
        FaultPlan {
            scheduled: Vec::new(),
            chaos: Some(chaos),
        }
    }

    fn at(mut self, stage: &str, task: usize, fault: Fault) -> Self {
        self.scheduled.push(ScheduledFault {
            stage: stage.to_string(),
            task,
            fault,
        });
        self
    }

    /// Schedule a panic at `(stage, task)`.
    pub fn panic_at(self, stage: &str, task: usize) -> Self {
        self.at(stage, task, Fault::Panic)
    }

    /// Schedule an injected delay (straggler) at `(stage, task)`.
    pub fn delay_at(self, stage: &str, task: usize, delay: Duration) -> Self {
        self.at(stage, task, Fault::Delay(delay))
    }

    /// Schedule a poisoned result at `(stage, task)`.
    pub fn poison_at(self, stage: &str, task: usize) -> Self {
        self.at(stage, task, Fault::Poison)
    }

    /// Whether the plan can ever fire.
    pub fn is_empty(&self) -> bool {
        self.scheduled.is_empty() && self.chaos.is_none()
    }

    /// The fault (if any) to inject at these coordinates. `seq` is the
    /// engine's stage sequence number, used only by the random campaign so
    /// repeated stages draw fresh faults.
    pub fn fault_for(&self, stage: &str, seq: u64, task: usize) -> Option<Fault> {
        for s in &self.scheduled {
            if s.task == task && s.stage == stage {
                return Some(s.fault);
            }
        }
        self.chaos
            .as_ref()
            .and_then(|c| c.fault_for(stage, seq, task))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduled_faults_match_exact_coordinates() {
        let plan = FaultPlan::new()
            .panic_at("update", 2)
            .delay_at("update", 1, Duration::from_millis(7))
            .poison_at("select", 0);
        assert_eq!(plan.fault_for("update", 0, 2), Some(Fault::Panic));
        // Stage sequence number is irrelevant for scheduled faults.
        assert_eq!(plan.fault_for("update", 99, 2), Some(Fault::Panic));
        assert_eq!(
            plan.fault_for("update", 0, 1),
            Some(Fault::Delay(Duration::from_millis(7)))
        );
        assert_eq!(plan.fault_for("select", 3, 0), Some(Fault::Poison));
        assert_eq!(plan.fault_for("update", 0, 0), None);
        assert_eq!(plan.fault_for("other", 0, 2), None);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn seeded_campaign_is_deterministic() {
        let cfg = ChaosConfig::new(42)
            .with_panic_rate(0.3)
            .with_delay_rate(0.2, Duration::from_millis(3))
            .with_poison_rate(0.2);
        let plan = FaultPlan::seeded(cfg);
        // Same coordinates, same fault — across plan instances too.
        let plan2 = FaultPlan::seeded(cfg);
        let mut fired = 0;
        for seq in 0..20u64 {
            for task in 0..8 {
                let a = plan.fault_for("stage", seq, task);
                assert_eq!(a, plan2.fault_for("stage", seq, task));
                if a.is_some() {
                    fired += 1;
                }
            }
        }
        // 70% combined rate over 160 coordinates: statistically certain to
        // fire many times (the hash is fixed, so this is not flaky).
        assert!(fired > 40, "only {fired} faults fired");
        // Different seeds disagree somewhere.
        let other = FaultPlan::seeded(ChaosConfig::new(43).with_panic_rate(0.3));
        let differs =
            (0..160).any(|i| plan.fault_for("stage", i, 0) != other.fault_for("stage", i, 0));
        assert!(differs);
    }

    #[test]
    fn distinct_stage_occurrences_draw_fresh_faults() {
        let cfg = ChaosConfig::new(11).with_panic_rate(0.5);
        let plan = FaultPlan::seeded(cfg);
        let a: Vec<_> = (0..64).map(|seq| plan.fault_for("s", seq, 0)).collect();
        assert!(a.iter().any(|f| f.is_some()));
        assert!(a.iter().any(|f| f.is_none()));
    }
}
