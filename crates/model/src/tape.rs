//! Per-example activation tapes.
//!
//! Every layer's `forward` takes the layer by `&self` and *returns* its
//! activation record; `backward` consumes it and writes parameter
//! gradients into a detached [`crate::param::Grads`] buffer. No layer
//! holds activations of its own, so a whole batch can run forward +
//! backward concurrently — one tape, one report, one gradient buffer per
//! item — with the per-item results reduced in fixed batch order so the
//! step is bit-identical to the sequential schedule at any thread count.

use attn_tensor::ops::LayerNormCache;
use attn_tensor::Matrix;
use attnchecker::attention::AttnCache;
use std::time::Duration;

/// Activation record of one [`crate::ffn::FeedForward`] forward pass.
#[derive(Debug, Clone)]
pub struct FfnTape {
    /// Input to the expansion GEMM (`lin1`).
    pub x: Matrix,
    /// Pre-GELU activation (the expansion output), needed for the GELU
    /// backward.
    pub pre: Matrix,
    /// Post-GELU activation — the contraction GEMM's (`lin2`) input.
    pub act: Matrix,
}

/// Activation record of one [`crate::block::TransformerBlock`] forward.
#[derive(Debug, Clone)]
pub struct BlockTape {
    /// Attention sub-layer activations (post-correction when protected).
    pub attn: AttnCache,
    /// FFN sub-layer activations.
    pub ffn: FfnTape,
    /// Statistics of the norm attached to the attention sub-layer.
    pub ln1: LayerNormCache,
    /// Statistics of the norm attached to the FFN sub-layer.
    pub ln2: LayerNormCache,
    /// Wall time of the attention sub-layer in this forward.
    pub attn_time: Duration,
    /// Wall time of the FFN sub-layer in this forward.
    pub ffn_time: Duration,
}

/// Activation record of the classification head.
#[derive(Debug, Clone)]
pub struct HeadTape {
    /// Sequence length of the forwarded example.
    pub seq: usize,
    /// Row selected for classification (`[CLS]` or last token).
    pub select_row: usize,
    /// Post-tanh pooled vector (BERT family only).
    pub pooled: Option<Matrix>,
    /// Pooler input (BERT family only).
    pub pooler_x: Option<Matrix>,
    /// Classifier input.
    pub classifier_x: Matrix,
}

/// Full activation tape of one example's forward pass through
/// [`crate::model::TransformerModel`] — everything backward needs, and
/// nothing stored on the model itself.
#[derive(Debug, Clone)]
pub struct ExampleTape {
    /// The forwarded token sequence (the embedding's scatter indices).
    pub tokens: Vec<usize>,
    /// Embedding LayerNorm statistics (BERT family).
    pub emb_ln: Option<LayerNormCache>,
    /// Per-block activation records, input order.
    pub blocks: Vec<BlockTape>,
    /// Final LayerNorm statistics (GPT family).
    pub final_ln: Option<LayerNormCache>,
    /// Classification-head record.
    pub head: HeadTape,
}
