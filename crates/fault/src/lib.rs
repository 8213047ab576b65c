//! # attn-fault
//!
//! Soft-error injection and error-propagation analysis, reproducing the
//! methodology of the paper's §3 (fault injection and error propagation
//! study) and §5.1 (evaluation-time injection).
//!
//! The paper injects three classes of extreme value into GEMM outputs:
//!
//! * **INF** — written directly (`±∞` assignment),
//! * **NaN** — written directly,
//! * **near-INF** — produced by flipping the most-significant *exponent* bit
//!   of the victim element, the dominant hardware mechanism for magnitude
//!   explosions (§2.2).
//!
//! [`bitflip`] implements the raw IEEE-754 manipulation, [`inject`] the
//! fault classes and how each is planted, [`pattern`] the 0D/1R/1C/2D
//! propagation classifier behind Table 2, and [`campaign`] a deterministic
//! parallel trial runner used by the Table 4 and §5.2 reproductions.

#![cfg_attr(not(test), deny(clippy::float_cmp))]
#![forbid(unsafe_code)]

pub mod bitflip;
pub mod campaign;
pub mod inject;
pub mod pattern;

pub use bitflip::{flip_bit, near_inf_flip};
pub use campaign::{run_campaign, CampaignStats};
pub use inject::FaultKind;
pub use pattern::{classify, ErrorTypeCensus, PatternClass, PropagationReport, ValueClass};
