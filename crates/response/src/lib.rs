//! # sbgt-response — pooled-test response models with dilution effects
//!
//! The Biostatistics companion paper ("Bayesian Group Testing with Dilution
//! Effects") generalizes group testing beyond the classic
//! perfect-test/binary-outcome setting in two directions, both reproduced
//! here:
//!
//! 1. **Dilution**: pooling `n` samples of which only `k` are positive
//!    dilutes the analyte, lowering the chance a positive pool is detected.
//!    [`dilution::Dilution`] captures this as an attenuation curve
//!    `d(k, n) ∈ [0, 1]` applied to the assay's maximum sensitivity, with
//!    several standard shapes (none/linear/exponential/Hill).
//! 2. **General outcome distributions**: outcomes need not be binary.
//!    [`continuous::GaussianResponse`] models a viral-load-style continuous
//!    signal (e.g. negated Ct values) whose mean shifts with the positive
//!    fraction.
//!
//! Everything the Bayesian machinery needs from a response model is the
//! likelihood `f(y | k, n)` of outcome `y` given `k` positives in a pool of
//! `n` — exposed via [`model::ResponseModel::likelihood_table`], which
//! returns the `n + 1` values a lattice update indexes by `|s ∩ A|`.

#![forbid(unsafe_code)]

pub mod binary;
pub mod calibrate;
pub mod continuous;
pub mod ct_value;
pub mod dilution;
pub mod model;

pub use binary::BinaryDilutionModel;
pub use continuous::GaussianResponse;
pub use ct_value::{CtOutcome, CtValueModel};
pub use dilution::Dilution;
pub use model::{BinaryOutcomeModel, ResponseModel};
