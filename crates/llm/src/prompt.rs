//! In-context demonstrations, the retrieved examples of an ICL prompt
//! (paper Fig. 3).

use serde::{Deserialize, Serialize};

/// One in-context demonstration: an input paired with its gold output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Demonstration {
    pub input: String,
    pub output: String,
}

/// A demonstration carrying its input's precomputed embedding.
///
/// Demonstrations are retrieved *from* a vector index, which already stores
/// the input's embedding — recomputing it inside the per-text scoring loop
/// (once per classification call per demo) was pure waste. Retrieval
/// surfaces the stored vector alongside the demonstration so scoring never
/// calls the embedder for demo inputs. The embedder is deterministic, so
/// the stored vector is bit-identical to a fresh `embed(input)`.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddedDemonstration {
    /// The demonstration itself.
    pub demo: Demonstration,
    /// `embed(demo.input)`, computed when the demo entered the index.
    pub embedding: allhands_embed::Embedding,
}
