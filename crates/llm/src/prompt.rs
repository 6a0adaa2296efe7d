//! In-context demonstrations, the retrieved examples of an ICL prompt
//! (paper Fig. 3).

use serde::{Deserialize, Serialize};

/// One in-context demonstration: an input paired with its gold output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Demonstration {
    pub input: String,
    pub output: String,
}

/// A retrieved demonstration as the classify head weighs it: the label it
/// votes for and its retrieval score.
///
/// Demonstrations are retrieved *from* a vector index, whose scan already
/// computes each hit's cosine to the query with `Embedding::cosine`'s
/// formula over the same values. The embedder is deterministic and the
/// index stores exactly `embed(input)`, so the score is bit for bit
/// `embed(text).cosine(&embed(input))`: scoring needs neither the
/// demonstration's vector nor its input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredDemonstration<'a> {
    /// The demonstration's gold output: the label it votes for.
    pub output: &'a str,
    /// Cosine similarity of the classified text to the demonstration's
    /// input.
    pub score: f32,
}
