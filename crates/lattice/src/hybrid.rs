//! Adaptive dense→sparse posterior switching: the policy and its support
//! count.
//!
//! Posterior mass concentrates onto a tiny support after a few informative
//! rounds (HiBGT's pruned-lattice observation), at which point the `Θ(2^N)`
//! dense traversal wastes almost all of its work on states carrying no
//! mass. A session starts dense — where the SIMD kernels and the sharded
//! engine path are fastest — and switches to the sparse representation once
//! the [`retained_support`] falls below a configurable fraction of the
//! lattice ([`SparseSwitch`]); `sbgt`'s exact backend takes the switch.

use crate::blocks::ExecMode;
use crate::dense::DensePosterior;

/// When (and how aggressively) a dense posterior converts to sparse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseSwitch {
    /// Switch when the retained support (states with mass above the prune
    /// cut) is at most this fraction of `2^N`. Must lie in `(0, 1]`.
    pub max_support_fraction: f64,
    /// Relative prune threshold applied at the switch and after every
    /// subsequent sparse update (`0.0` = keep all positive-mass states).
    /// Must lie in `[0, 1)`.
    pub prune_epsilon: f64,
}

impl Default for SparseSwitch {
    fn default() -> Self {
        // 1/64th of the lattice: late enough that the dense SIMD path has
        // done the heavy early rounds, early enough that the sparse tail of
        // a session runs in cache.
        SparseSwitch {
            max_support_fraction: 1.0 / 64.0,
            prune_epsilon: 1e-12,
        }
    }
}

impl SparseSwitch {
    /// `Err(reason)` when a field is out of range.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.max_support_fraction > 0.0 && self.max_support_fraction <= 1.0) {
            return Err(format!(
                "max_support_fraction must lie in (0, 1], got {}",
                self.max_support_fraction
            ));
        }
        if !(0.0..1.0).contains(&self.prune_epsilon) {
            return Err(format!(
                "prune_epsilon must lie in [0, 1), got {}",
                self.prune_epsilon
            ));
        }
        Ok(())
    }
}

/// The one prune rule: a state of mass `p` is retained iff
/// `p > ε · total` and `p > 0` (the cut is 0 when `total` is not
/// positive). Every conversion and support count filters through this.
pub fn keeps(total: f64, epsilon: f64) -> impl Fn(f64) -> bool + Copy + Send + Sync + 'static {
    let cut = if total > 0.0 { epsilon * total } else { 0.0 };
    move |p| p > cut && p > 0.0
}

/// Number of states of `dense` whose mass exceeds the relative prune cut —
/// the support the posterior would retain if converted to sparse now —
/// with the blocks run where `exec` says.
pub fn retained_support(dense: &DensePosterior, epsilon: f64, exec: ExecMode) -> usize {
    let keep = keeps(dense.total_on(exec), epsilon);
    exec.fold(
        dense.probs(),
        |block, _| block.iter().filter(|&&p| keep(p)).count(),
        |a, b| a + b,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_config_is_validated() {
        assert!(SparseSwitch::default().validate().is_ok());
        for bad in [
            SparseSwitch {
                max_support_fraction: 0.0,
                ..SparseSwitch::default()
            },
            SparseSwitch {
                max_support_fraction: 1.5,
                ..SparseSwitch::default()
            },
            SparseSwitch {
                prune_epsilon: 1.0,
                ..SparseSwitch::default()
            },
            SparseSwitch {
                prune_epsilon: -0.1,
                ..SparseSwitch::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn retained_support_respects_epsilon() {
        let mut probs = vec![1e-15f64; 16];
        probs[5] = 1.0;
        let d = DensePosterior::from_probs(4, probs);
        assert_eq!(retained_support(&d, 1e-9, ExecMode::Serial), 1);
        assert_eq!(retained_support(&d, 0.0, ExecMode::Serial), 16);
    }
}
