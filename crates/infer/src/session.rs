//! Per-stream decode state.

use attn_model::decode::DecodeState;
use attn_tensor::rng::TensorRng;
use attn_tensor::Matrix;
use attnchecker::report::AbftReport;

/// One autoregressive decode stream: its token history, per-layer KV
/// caches, next-token logits, a private sampling RNG, and the ABFT report
/// accumulated over its lifetime.
///
/// Sessions are created by [`crate::DecodeEngine::open_session`] (which
/// extends a fresh state by the whole prompt) and advanced by the engine's
/// step methods, each one more `extend` of the same state. All
/// mutable state is session-local, so a batch of sessions can advance
/// concurrently with no sharing beyond the read-only model.
pub struct DecodeSession {
    /// Engine-assigned id (stable across batching).
    pub id: u64,
    /// Prompt + generated tokens, in order.
    pub tokens: Vec<usize>,
    /// How many of `tokens` were the prompt.
    pub prompt_len: usize,
    /// ABFT activity over this session's lifetime (prefill + every step).
    pub report: AbftReport,
    pub(crate) state: DecodeState,
    /// Next-token distribution (`1 × vocab` logits) — produced by the
    /// most recent `extend` (the prompt's, or the last step's).
    pub(crate) logits: Matrix,
    pub(crate) rng: TensorRng,
}

impl std::fmt::Debug for DecodeSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodeSession")
            .field("id", &self.id)
            .field("prompt_len", &self.prompt_len)
            .field("tokens", &self.tokens.len())
            .field("position", &self.state.pos())
            .finish()
    }
}

impl DecodeSession {
    /// Tokens generated so far (excluding the prompt).
    pub fn generated(&self) -> &[usize] {
        // `prompt_len <= tokens.len()` by construction (the prompt seeds
        // `tokens`), so the miss arm is unreachable — but the serving
        // path must not carry a panic for an invariant it can degrade
        // gracefully on.
        self.tokens.get(self.prompt_len..).unwrap_or(&[])
    }

    /// The current next-token logits row.
    pub fn logits(&self) -> &Matrix {
        &self.logits
    }

    /// Tokens consumed by the model (prompt + generated).
    pub fn position(&self) -> usize {
        self.state.pos()
    }

    /// Model-side decode state (KV caches).
    pub fn state(&self) -> &DecodeState {
        &self.state
    }

    /// Whether the session is parked — verified and descheduled (see
    /// [`crate::DecodeEngine::park_session`]); a parked session cannot
    /// step until unparked.
    pub fn is_parked(&self) -> bool {
        self.state.is_parked()
    }
}
