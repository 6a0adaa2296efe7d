//! Simulated large language model substrate.
//!
//! The paper drives every stage of AllHands through GPT-3.5 / GPT-4 chat
//! completions. This crate is the deterministic stand-in: [`SimLlm`],
//! built from one of two tiered [`ModelSpec`]s whose capability differences
//! are *mechanistic*, so the orderings the paper reports (GPT-4 > GPT-3.5,
//! few-shot > zero-shot) emerge from the mechanism rather than from
//! hard-coded numbers:
//!
//! | capability axis            | GPT-3.5 sim | GPT-4 sim |
//! |----------------------------|-------------|-----------|
//! | embedding space            | 256-dim, word-only | 512-dim, +char-ngrams |
//! | demonstration weighting    | weaker      | stronger  |
//! | zero-shot lexical prior    | noisier     | sharper   |
//! | label/plan slip rate       | higher      | lower     |
//!
//! Determinism: at `temperature = 0` every head is a pure function of
//! (input, model spec, seed) — slips are decided by hashing the input, not
//! by mutable RNG state — mirroring the paper's reproducibility setup
//! (Sec. 5.1 sets temperature to zero; [`ChatOptions`] models temperature
//! only).
//!
//! Every model call is one of three typed task heads, one per pipeline
//! stage:
//! - [`classify`]: ICL classification (paper Sec. 3.2),
//! - [`summarize`]: abstractive topic summarization (Sec. 3.3),
//! - [`codegen`]: natural language → AQL generation (Sec. 3.4.2).

pub mod classify;
pub mod codegen;
pub mod model;
pub mod prompt;
pub mod summarize;

pub use classify::ClassifyHead;
pub use codegen::{CodegenHead, CodegenRequest, SchemaInfo};
pub use model::{ChatOptions, LlmError, LlmErrorKind, ModelSpec, ModelTier, SimLlm};
pub use prompt::{Demonstration, ScoredDemonstration};
pub use summarize::{SummarizeHead, TopicRequest, TopicResponse};
