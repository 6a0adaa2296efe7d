//! AllHands — "Ask Me Anything" analytics on large-scale verbatim feedback.
//!
//! This umbrella crate re-exports every component of the workspace under
//! one roof, so downstream users can depend on a single crate:
//!
//! - [`core`] — the AllHands pipeline (classification → abstractive topic
//!   modeling → QA) and its facade type.
//! - [`agent`] — the planner / code-generator / executor QA agent.
//! - [`query`] — AQL, the analysis language the agent generates.
//! - [`dataframe`] — the columnar engine the executor runs on.
//! - [`llm`] — the simulated tiered language models.
//! - [`classify`], [`topics`] — the baseline models of the paper's
//!   evaluation.
//! - [`embed`], [`vectordb`], [`text`] — the retrieval substrates.
//! - [`datasets`] — synthetic corpora matching the paper's Table 1 and the
//!   90-question benchmark of Tables 5–7.
//! - [`eval`] — difficulty model and answer-quality judges.
//! - [`resilience`] — seeded fault injection, retry/backoff, circuit
//!   breakers, and the unified error taxonomy.
//! - [`par`] — deterministic data-parallel execution (index-ordered merge,
//!   `ALLHANDS_THREADS`) with per-item panic isolation.
//! - [`journal`] — the crash-safe write-ahead journal behind
//!   checkpoint/resume and the dead-letter quarantine record, plus the
//!   checkpoint store, compaction, and point-in-time recovery.
//! - [`obs`] — deterministic tracing and metrics: hierarchical spans,
//!   counters/histograms, and the schema-stable [`RunReport`](obs::RunReport).
//! - [`serve`] — the leader/follower session server: write admission
//!   queue, journal-tail replication to read replicas, and the
//!   length-prefixed JSON wire protocol.
//!
//! For application code, `use allhands::prelude::*;` pulls in the dozen
//! types a typical run touches.

pub use allhands_agent as agent;
pub use allhands_classify as classify;
pub use allhands_core as core;
pub use allhands_dataframe as dataframe;
pub use allhands_datasets as datasets;
pub use allhands_embed as embed;
pub use allhands_eval as eval;
pub use allhands_journal as journal;
pub use allhands_llm as llm;
pub use allhands_obs as obs;
pub use allhands_par as par;
pub use allhands_query as query;
pub use allhands_resilience as resilience;
pub use allhands_serve as serve;
pub use allhands_text as text;
pub use allhands_topics as topics;
pub use allhands_vectordb as vectordb;

/// The types a typical AllHands run touches, in one import:
///
/// ```
/// use allhands::prelude::*;
/// ```
pub mod prelude {
    pub use allhands_classify::LabeledExample;
    pub use allhands_core::{
        AllHands, AllHandsBuilder, AllHandsConfig, AllHandsError, BootstrapBundle,
        CheckpointPolicy, FaultVfs, IngestConfig, IngestReport, IoFaultKind, IoFaultPlan,
        JournalMode, QuarantineReport, RecorderMode, RecoverPoint, Response, TailEntry,
        TailReport, Vfs,
    };
    pub use allhands_dataframe::DataFrame;
    pub use allhands_llm::ModelTier;
    pub use allhands_obs::{Recorder, RunReport};
    pub use allhands_resilience::{ResilienceConfig, ResilienceCtx};
}
