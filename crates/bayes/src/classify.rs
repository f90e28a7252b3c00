//! Classification rules — the stopping criterion of sequential testing.
//!
//! Subject `i` is *classified positive* once the posterior marginal
//! `P(i positive | data)` exceeds `pos_threshold`, *classified negative*
//! once it falls below `neg_threshold`, and *undetermined* in between. The
//! sequential procedure terminates when every subject is classified; the
//! thresholds trade test count against error rates (experiment E6 sweeps
//! them).

use serde::{Deserialize, Serialize};

/// Terminal classification of one subject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SubjectStatus {
    /// Marginal above the positive threshold.
    Positive,
    /// Marginal below the negative threshold.
    Negative,
    /// Marginal between the thresholds; more tests needed.
    Undetermined,
}

/// Threshold rule on posterior marginals.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassificationRule {
    /// Classify positive when the marginal is `>= pos_threshold`.
    pub pos_threshold: f64,
    /// Classify negative when the marginal is `<= neg_threshold`.
    pub neg_threshold: f64,
}

impl ClassificationRule {
    /// Construct with validation.
    ///
    /// # Panics
    /// Panics unless `0 < neg_threshold < pos_threshold < 1`.
    pub fn new(pos_threshold: f64, neg_threshold: f64) -> Self {
        let rule = ClassificationRule {
            pos_threshold,
            neg_threshold,
        };
        if let Err(e) = rule.validate() {
            panic!("{e}");
        }
        rule
    }

    /// Check `0 < neg_threshold < pos_threshold < 1`, the condition
    /// [`Self::new`] asserts. The fields are public, so a rule built as a
    /// struct literal is checked here; a NaN threshold fails.
    pub fn validate(&self) -> Result<(), String> {
        let (pos, neg) = (self.pos_threshold, self.neg_threshold);
        if 0.0 < neg && neg < pos && pos < 1.0 {
            Ok(())
        } else {
            Err(format!("need 0 < neg ({neg}) < pos ({pos}) < 1"))
        }
    }

    /// The symmetric rule at confidence `c` (e.g. `c = 0.99` gives
    /// thresholds 0.99 / 0.01). This is the default operating point in the
    /// method papers.
    pub fn symmetric(c: f64) -> Self {
        assert!(c > 0.5 && c < 1.0, "confidence {c} must be in (0.5, 1)");
        ClassificationRule::new(c, 1.0 - c)
    }

    /// Classify one marginal.
    pub fn classify(&self, marginal: f64) -> SubjectStatus {
        if marginal >= self.pos_threshold {
            SubjectStatus::Positive
        } else if marginal <= self.neg_threshold {
            SubjectStatus::Negative
        } else {
            SubjectStatus::Undetermined
        }
    }
}

/// Classification of an entire cohort.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CohortClassification {
    /// Per-subject statuses, indexed by subject.
    pub statuses: Vec<SubjectStatus>,
}

impl CohortClassification {
    /// Subjects still undetermined.
    pub fn undetermined(&self) -> Vec<usize> {
        self.statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == SubjectStatus::Undetermined)
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether every subject is classified (the sequential stop condition).
    pub fn is_terminal(&self) -> bool {
        self.statuses
            .iter()
            .all(|s| *s != SubjectStatus::Undetermined)
    }

    /// Count of subjects classified positive.
    pub fn positives(&self) -> usize {
        self.statuses
            .iter()
            .filter(|s| **s == SubjectStatus::Positive)
            .count()
    }

    /// Count of subjects classified negative.
    pub fn negatives(&self) -> usize {
        self.statuses
            .iter()
            .filter(|s| **s == SubjectStatus::Negative)
            .count()
    }
}

/// Classify a whole marginal vector.
pub fn classify_marginals(marginals: &[f64], rule: ClassificationRule) -> CohortClassification {
    CohortClassification {
        statuses: marginals.iter().map(|&m| rule.classify(m)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_partition_the_unit_interval() {
        let rule = ClassificationRule::new(0.95, 0.05);
        assert_eq!(rule.classify(0.99), SubjectStatus::Positive);
        assert_eq!(rule.classify(0.95), SubjectStatus::Positive);
        assert_eq!(rule.classify(0.5), SubjectStatus::Undetermined);
        assert_eq!(rule.classify(0.05), SubjectStatus::Negative);
        assert_eq!(rule.classify(0.001), SubjectStatus::Negative);
    }

    #[test]
    fn symmetric_rule() {
        let rule = ClassificationRule::symmetric(0.99);
        assert!((rule.pos_threshold - 0.99).abs() < 1e-12);
        assert!((rule.neg_threshold - 0.01).abs() < 1e-12);
    }

    #[test]
    fn cohort_summary() {
        let rule = ClassificationRule::symmetric(0.9);
        let c = classify_marginals(&[0.95, 0.5, 0.02, 0.91], rule);
        assert_eq!(c.positives(), 2);
        assert_eq!(c.negatives(), 1);
        assert_eq!(c.undetermined(), vec![1]);
        assert!(!c.is_terminal());

        let done = classify_marginals(&[0.99, 0.001], rule);
        assert!(done.is_terminal());
    }

    #[test]
    #[should_panic(expected = "need 0 < neg")]
    fn rejects_crossed_thresholds() {
        let _ = ClassificationRule::new(0.3, 0.6);
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn symmetric_rejects_low_confidence() {
        let _ = ClassificationRule::symmetric(0.5);
    }
}
