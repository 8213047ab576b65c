//! Request/response vocabulary of the serving gateway.

use attnchecker::report::AbftReport;

/// Gateway-assigned request identifier (dense, in submission order).
pub type RequestId = u64;

/// One generation request: a prompt, a cap on generated tokens, and the
/// seed for the session's private sampling RNG. Two requests with the
/// same fields produce the same tokens regardless of what else the
/// gateway is serving — sessions share nothing but the read-only model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Prompt token ids (must be non-empty, fit the position table, and
    /// each be below the model's vocabulary size — anything else is a
    /// typed reject at `Gateway::submit`).
    pub prompt: Vec<usize>,
    /// Maximum number of generated tokens (0 completes right after
    /// prefill).
    pub max_new: usize,
    /// Seed for the session's sampling RNG.
    pub seed: u64,
}

/// Typed admission rejection — the gateway's load-shedding contract.
/// Overload and malformed requests are reported to the caller, never
/// panics inside the serving loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The admission queue is at its configured depth; retry later
    /// (backpressure).
    QueueFull {
        /// The configured bound that was hit.
        depth: usize,
    },
    /// Prompts must contain at least one token.
    EmptyPrompt,
    /// The prompt alone cannot fit the model's position table, so the
    /// session could never prefill.
    PromptTooLong {
        /// Tokens in the rejected prompt.
        prompt: usize,
        /// Position-table capacity of the served model.
        capacity: usize,
    },
    /// The prompt holds an id the model's embedding table has no row for.
    TokenOutOfVocab {
        /// The first offending token id.
        token: usize,
        /// Vocabulary size of the served model.
        vocab: usize,
    },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::QueueFull { depth } => {
                write!(f, "admission queue full (depth {depth})")
            }
            AdmitError::EmptyPrompt => write!(f, "empty prompt"),
            AdmitError::PromptTooLong { prompt, capacity } => {
                write!(f, "prompt of {prompt} tokens exceeds capacity {capacity}")
            }
            AdmitError::TokenOutOfVocab { token, vocab } => {
                write!(f, "token id {token} out of vocab {vocab}")
            }
        }
    }
}

impl std::error::Error for AdmitError {}

/// Why a request left the gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishReason {
    /// Generated the configured end-of-sequence token (included in
    /// `tokens`).
    Eos,
    /// Generated `max_new` tokens.
    TokenBudget,
    /// The model's position table ran out before EOS or budget.
    CapacityExhausted,
    /// Waited in the admission queue past the configured TTL and was
    /// shed without ever running.
    ExpiredInQueue,
}

/// A finished request: its full token stream, why it finished, the
/// logical ticks it entered and left the system, and the ABFT activity
/// accumulated while it ran.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The id `Gateway::submit` returned.
    pub id: RequestId,
    /// Why the request finished.
    pub reason: FinishReason,
    /// Prompt + generated tokens (prompt only when shed from the queue).
    pub tokens: Vec<usize>,
    /// How many of `tokens` were the prompt.
    pub prompt_len: usize,
    /// Logical tick the request was submitted.
    pub submitted_at: u64,
    /// Logical tick the request finished (or was shed).
    pub finished_at: u64,
    /// ABFT report over the request's prefill and every decode step
    /// (default/quiet when shed).
    pub report: AbftReport,
}

impl Completion {
    /// The generated tokens (excluding the prompt).
    pub fn generated(&self) -> &[usize] {
        self.tokens.get(self.prompt_len..).unwrap_or(&[])
    }
}

/// One arrival in a synthetic traffic trace: submit `request` at logical
/// tick `at_tick`. Traces must be sorted by `at_tick`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Logical tick of the arrival.
    pub at_tick: u64,
    /// The request to submit.
    pub request: Request,
}

/// Everything a replayed trace produced: completions in finish order and
/// the arrivals the admission queue shed at submit time.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOutcome {
    /// Completions in the order they finished.
    pub completions: Vec<Completion>,
    /// `(trace index, why)` for arrivals rejected at submission.
    pub rejected: Vec<(usize, AdmitError)>,
}
