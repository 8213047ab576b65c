//! # attnchecker
//!
//! Rust implementation of **ATTNChecker** (PPoPP '25): the first
//! Algorithm-Based Fault Tolerance (ABFT) scheme for the attention mechanism
//! of transformer LLMs that detects *and corrects* extreme soft errors —
//! INF, NaN, and near-INF — in real time, avoiding checkpoint rollbacks.
//!
//! ## Layered design (bottom-up)
//!
//! * [`checksum`] — dual (unweighted + weighted) checksum encoding for
//!   matrices and vectors, under `attn_tensor::contract`'s accumulation
//!   order.
//! * [`checked`] — [`CheckedMatrix`]: a matrix physically augmented with
//!   checksum rows/columns so checksum *updates* ride along the very same
//!   GEMM that produces the data (paper §4.6 "Updating") — one
//!   [`CheckedMatrix::product`] over borrowed [`checked::Operand`] views.
//! * [`eec`] — per-vector Extreme-Error-Correcting ABFT with the four-case
//!   dispatch of paper Fig 3 (finite δ / INF δ / NaN δ / propagation).
//! * [`detect`] — matrix-level correction passes: deterministic patterns via
//!   one-sided checksums, nondeterministic patterns via the two-sided
//!   try-columns-then-rows protocol with checksum rebuild (paper §4.3).
//! * [`section`] — the composable guarded-GEMM pipeline: [`GuardedSection`]
//!   strings guarded GEMMs (encoding on entry, inside the kernel),
//!   nonlinear exits, fault-hook taps, delayed detection points, and
//!   exact-replay refinement into reusable protection sections, and
//!   [`section::Ctx`] threads one execution's state (policy, toggles,
//!   mask, hook, op guard, report, tape mode) through every layer;
//!   [`GuardedSection::check`] and [`GuardedSection::project`] are the one
//!   way a layer guards a product.
//! * [`policy`] — [`ProtectionPolicy`]: single owner of the per-section
//!   frequency gates (paper §4.5), handing out per-execution
//!   [`attention::SectionToggles`].
//! * [`attention`] — the attention's weights, tape, section toggles and
//!   fault-injection sites, and the training forward
//!   ([`attention::ProtectedAttention::forward`]): [`decode::extend`] over
//!   an empty KV cache, recording the backward tape. Callers that batch (trainer, decode
//!   engine) fan it out per item.
//! * [`decode`] — the one protected attention: the three sections `S_AS`,
//!   `S_CL`, `S_O` with checksum passing across the six attention GEMMs
//!   (paper §4.4, Fig 5), built on [`section`], over a checksummed KV
//!   cache ([`AttnKvCache`]). [`decode::extend`] appends m ≥ 1 rows with
//!   verify-on-append, so a training sequence, a prompt, a prefill chunk
//!   and a decoded token are one call; the cache verifies itself where it
//!   lies when parked.
//! * [`adaptive`] — Poisson reliability model, fault coverage (FC), fault
//!   coverage efficiency (FCE), and the greedy detection-frequency
//!   optimizer of paper Algorithm 1.
//!
//! ## Quick start
//!
//! ```
//! use attn_tensor::rng::TensorRng;
//! use attnchecker::attention::{AttentionWeights, ProtectedAttention};
//! use attnchecker::config::ProtectionConfig;
//! use attnchecker::report::AbftReport;
//!
//! let mut rng = TensorRng::seed_from(0);
//! let (seq, hidden, heads) = (16, 32, 4);
//! let weights = AttentionWeights::random(hidden, heads, &mut rng);
//! let attn = ProtectedAttention::new(weights, ProtectionConfig::full());
//! let x = rng.normal_matrix(seq, hidden, 0.5);
//! let mut report = AbftReport::default();
//! let out = attn.forward_simple(&x, &mut report);
//! assert_eq!(out.output.rows(), seq);
//! assert_eq!(out.output.cols(), hidden);
//! assert!(report.is_quiet()); // fault-free run: nothing detected
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod attention;
pub mod checked;
pub mod checksum;
pub mod config;
pub mod decode;
pub mod detect;
pub mod eec;
pub mod policy;
pub mod report;
pub mod section;

pub use attention::ForwardCtx;
pub use checked::CheckedMatrix;
pub use config::{AbftConfig, FrequencyGate, ProtectionConfig, Strategy};
pub use decode::{AttnKvCache, KV_BLOCK_ROWS};
pub use eec::{eec_correct_vector, VectorVerdict};
pub use policy::ProtectionPolicy;
pub use report::AbftReport;
pub use section::GuardedSection;
