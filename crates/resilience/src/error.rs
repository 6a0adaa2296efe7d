//! The unified error taxonomy for the pipeline.
//!
//! Every stage-level failure converges on [`AllHandsError`] so the retry
//! and degradation machinery can make one decision — is this transient or
//! permanent? — regardless of which subsystem produced it.

use crate::breaker::Head;
use allhands_llm::LlmError;

/// A pipeline-level error from any stage or substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum AllHandsError {
    /// LLM invocation failure (carries its own transient/permanent kind).
    Llm(LlmError),
    /// AQL lex/parse/runtime failure.
    Query(allhands_query::QueryError),
    /// Dataframe engine failure.
    Frame(allhands_dataframe::FrameError),
    /// A resource budget (steps, rows, wall clock) was exhausted.
    Budget(String),
    /// The circuit breaker for a head is open; the call was not attempted.
    BreakerOpen { head: Head },
    /// A retryable operation kept failing until its retry budget ran out.
    RetriesExhausted { head: Head, attempts: u32, last: Box<AllHandsError> },
    /// The session's durability layer tripped into read-only degraded
    /// mode (repeated storage failures): queries keep serving, but
    /// state-changing operations are refused until the session is
    /// reopened on healthy storage.
    ReadOnly(String),
    /// Anything else stage-level (invariant violations, wiring errors).
    Pipeline(String),
}

impl AllHandsError {
    /// Whether retrying the identical operation can plausibly succeed.
    /// Budget exhaustion, open breakers, and spent retry budgets are final;
    /// query/frame errors describe a wrong program, not a flaky call.
    pub fn retryable(&self) -> bool {
        match self {
            AllHandsError::Llm(e) => e.retryable(),
            AllHandsError::Query(_)
            | AllHandsError::Frame(_)
            | AllHandsError::Budget(_)
            | AllHandsError::BreakerOpen { .. }
            | AllHandsError::RetriesExhausted { .. }
            | AllHandsError::ReadOnly(_)
            | AllHandsError::Pipeline(_) => false,
        }
    }

    /// Short stable label for degradation notes and logs.
    pub fn label(&self) -> &'static str {
        match self {
            AllHandsError::Llm(e) => e.kind.label(),
            AllHandsError::Query(_) => "query",
            AllHandsError::Frame(_) => "frame",
            AllHandsError::Budget(_) => "budget",
            AllHandsError::BreakerOpen { .. } => "breaker-open",
            AllHandsError::RetriesExhausted { .. } => "retries-exhausted",
            AllHandsError::ReadOnly(_) => "read-only",
            AllHandsError::Pipeline(_) => "pipeline",
        }
    }
}

impl std::fmt::Display for AllHandsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllHandsError::Llm(e) => write!(f, "llm error: {e}"),
            AllHandsError::Query(e) => write!(f, "query error: {e}"),
            AllHandsError::Frame(e) => write!(f, "dataframe error: {e}"),
            AllHandsError::Budget(msg) => write!(f, "budget exhausted: {msg}"),
            AllHandsError::BreakerOpen { head } => {
                write!(f, "circuit breaker open for {} head", head.label())
            }
            AllHandsError::RetriesExhausted { head, attempts, last } => write!(
                f,
                "{} head failed after {attempts} attempts; last error: {last}",
                head.label()
            ),
            AllHandsError::ReadOnly(msg) => {
                write!(f, "session is read-only (degraded): {msg}")
            }
            AllHandsError::Pipeline(msg) => write!(f, "pipeline error: {msg}"),
        }
    }
}

impl std::error::Error for AllHandsError {}

impl From<LlmError> for AllHandsError {
    fn from(e: LlmError) -> Self {
        AllHandsError::Llm(e)
    }
}

impl From<allhands_query::QueryError> for AllHandsError {
    fn from(e: allhands_query::QueryError) -> Self {
        // Budget exhaustion surfaces inside the interpreter as a QueryError;
        // reclassify it here so every caller sees one budget category.
        if e.message.contains("budget exhausted") || e.message.contains("cell wall-clock") {
            AllHandsError::Budget(e.message)
        } else {
            AllHandsError::Query(e)
        }
    }
}

impl From<allhands_dataframe::FrameError> for AllHandsError {
    fn from(e: allhands_dataframe::FrameError) -> Self {
        AllHandsError::Frame(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use allhands_llm::LlmErrorKind;

    #[test]
    fn retryability_follows_taxonomy() {
        let transient = AllHandsError::Llm(LlmError::new(LlmErrorKind::Timeout, "t"));
        assert!(transient.retryable());
        let permanent = AllHandsError::Llm(LlmError::new(LlmErrorKind::Generation, "o"));
        assert!(!permanent.retryable());
        assert!(!AllHandsError::Budget("steps".into()).retryable());
        assert!(!AllHandsError::BreakerOpen { head: Head::Classify }.retryable());
        assert!(!AllHandsError::Query(allhands_query::QueryError::runtime("bad")).retryable());
    }

    #[test]
    fn budget_query_errors_are_reclassified() {
        let e = allhands_query::QueryError::runtime(
            "step budget exhausted (50000000 steps): program too expensive",
        );
        assert!(matches!(AllHandsError::from(e), AllHandsError::Budget(_)));
        let e = allhands_query::QueryError::runtime("unknown column");
        assert!(matches!(AllHandsError::from(e), AllHandsError::Query(_)));
    }
}
