//! Model tiers, capability specs, and [`SimLlm`], the simulated model whose
//! typed task heads every stage calls.

use crate::classify::ClassifyHead;
use crate::codegen::CodegenHead;
use crate::summarize::SummarizeHead;
use allhands_embed::{hash64, EmbedderConfig, SentenceEmbedder};
use allhands_obs::Recorder;

/// Which capability tier a simulated model belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelTier {
    /// The GPT-3.5 stand-in.
    Gpt35,
    /// The GPT-4 stand-in.
    Gpt4,
}

impl ModelTier {
    /// Display name used in result tables.
    pub fn name(self) -> &'static str {
        match self {
            ModelTier::Gpt35 => "GPT-3.5",
            ModelTier::Gpt4 => "GPT-4",
        }
    }
}

/// Capability parameters of a simulated model. Lower slip rates and a
/// richer embedding space are what make the GPT-4 sim stronger.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    pub tier: ModelTier,
    /// API-style model name.
    pub name: &'static str,
    /// Embedder configuration for all semantic scoring in this model.
    pub embed: EmbedderConfig,
    /// How strongly retrieved demonstrations sway classification relative
    /// to the zero-shot prior (≥ 0; higher = few-shot helps more).
    pub demo_weight: f32,
    /// Probability of a label slip (deterministic per input) when
    /// classifying.
    pub label_slip: f64,
    /// Probability of a step slip (dropping a filter, mislabeling an axis)
    /// when generating code.
    pub plan_slip: f64,
    /// Probability of hallucinating an over-specific topic phrase when
    /// topic modeling.
    pub topic_hallucination: f64,
    /// Base seed; combined with input hashes for deterministic noise.
    pub seed: u64,
}

impl ModelSpec {
    /// The GPT-3.5 stand-in spec.
    pub fn gpt35() -> Self {
        ModelSpec {
            tier: ModelTier::Gpt35,
            name: "gpt-3.5-sim",
            embed: EmbedderConfig { dims: 256, use_bigrams: true, char_ngram: 0, ..Default::default() },
            demo_weight: 2.0,
            label_slip: 0.10,
            plan_slip: 0.42,
            topic_hallucination: 0.18,
            seed: 0x35,
        }
    }

    /// The GPT-4 stand-in spec.
    pub fn gpt4() -> Self {
        ModelSpec {
            tier: ModelTier::Gpt4,
            name: "gpt-4-sim",
            embed: EmbedderConfig { dims: 512, use_bigrams: true, char_ngram: 3, ..Default::default() },
            demo_weight: 3.5,
            label_slip: 0.02,
            plan_slip: 0.07,
            topic_hallucination: 0.05,
            seed: 0x4,
        }
    }

    /// Spec for a tier.
    pub fn for_tier(tier: ModelTier) -> Self {
        match tier {
            ModelTier::Gpt35 => Self::gpt35(),
            ModelTier::Gpt4 => Self::gpt4(),
        }
    }

    /// Deterministic "coin flip": does noise of rate `rate` fire for
    /// `input` in `namespace`? Pure function of (spec seed, namespace,
    /// input) — this is what makes temperature-0 runs reproducible.
    pub fn slips(&self, namespace: &str, input: &str, rate: f64) -> bool {
        // FNV's upper bits are weakly distributed — mix before mapping to
        // [0, 1) so empirical slip rates match the nominal rate.
        let h = allhands_embed::mix64(
            hash64(input) ^ hash64(namespace) ^ self.seed.wrapping_mul(0x9E37_79B9),
        );
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < rate
    }
}

/// Generation options. Only temperature is modeled: it scales every slip
/// rate. (The paper's Sec. 5.1 also zeroes nucleus sampling, which a
/// deterministic simulation has no use for.)
#[derive(Debug, Clone, Copy, Default)]
pub struct ChatOptions {
    /// 0.0 = deterministic. Higher values scale all slip rates up.
    pub temperature: f64,
}

impl ChatOptions {
    /// Effective multiplier applied to slip rates.
    pub fn noise_scale(&self) -> f64 {
        1.0 + self.temperature
    }
}

/// What went wrong in an LLM invocation. The taxonomy distinguishes
/// transient faults (worth retrying) from permanent ones (retrying the same
/// request can never help), which is what the resilience layer keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LlmErrorKind {
    /// Request timed out before a completion arrived. Transient.
    Timeout,
    /// Provider rejected the request for rate limiting. Transient.
    RateLimited,
    /// Completion came back cut off mid-output. Transient.
    Truncated,
    /// Completion was empty. Transient.
    Empty,
    /// Completion failed output-format validation. Transient.
    Malformed,
    /// The task head itself could not produce output (e.g. codegen gave
    /// up on an unanswerable request). Permanent.
    Generation,
}

impl LlmErrorKind {
    /// Whether retrying the identical request can plausibly succeed.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            LlmErrorKind::Timeout
                | LlmErrorKind::RateLimited
                | LlmErrorKind::Truncated
                | LlmErrorKind::Empty
                | LlmErrorKind::Malformed
        )
    }

    /// Short stable label used in degradation notes and logs.
    pub fn label(self) -> &'static str {
        match self {
            LlmErrorKind::Timeout => "timeout",
            LlmErrorKind::RateLimited => "rate-limited",
            LlmErrorKind::Truncated => "truncated",
            LlmErrorKind::Empty => "empty",
            LlmErrorKind::Malformed => "malformed",
            LlmErrorKind::Generation => "generation",
        }
    }
}

/// LLM invocation error: a [`LlmErrorKind`] plus a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct LlmError {
    pub kind: LlmErrorKind,
    pub message: String,
}

impl LlmError {
    pub fn new(kind: LlmErrorKind, message: impl Into<String>) -> Self {
        LlmError { kind, message: message.into() }
    }

    /// Whether retrying the identical request can plausibly succeed.
    pub fn retryable(&self) -> bool {
        self.kind.retryable()
    }
}

impl std::fmt::Display for LlmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.label(), self.message)
    }
}
impl std::error::Error for LlmError {}

/// The simulated LLM: a spec plus a shared embedder and the three task
/// heads.
pub struct SimLlm {
    spec: ModelSpec,
    embedder: SentenceEmbedder,
}

impl SimLlm {
    /// Build a simulated model from a spec.
    pub fn new(spec: ModelSpec) -> Self {
        let embedder = SentenceEmbedder::new(spec.embed.clone());
        SimLlm { spec, embedder }
    }

    /// Convenience constructors.
    pub fn gpt35() -> Self {
        Self::new(ModelSpec::gpt35())
    }

    /// Convenience constructors.
    pub fn gpt4() -> Self {
        Self::new(ModelSpec::gpt4())
    }

    /// The capability spec.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The model's embedder (shared across heads so retrieval and scoring
    /// live in one space).
    pub fn embedder(&self) -> &SentenceEmbedder {
        &self.embedder
    }

    /// Attach a metrics recorder. The embedder carries it, so every head
    /// (classify, summarize, codegen) and the embedding caches report into
    /// the same sink.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.embedder.set_recorder(rec);
    }

    /// The attached recorder (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        self.embedder.recorder()
    }

    /// The classification head.
    pub fn classify_head(&self) -> ClassifyHead<'_> {
        ClassifyHead::new(&self.spec, &self.embedder)
    }

    /// The abstractive-topic-modeling head.
    pub fn summarize_head(&self) -> SummarizeHead<'_> {
        SummarizeHead::new(&self.spec, &self.embedder)
    }

    /// The code-generation head.
    pub fn codegen_head(&self) -> CodegenHead<'_> {
        CodegenHead::new(&self.spec).with_recorder(self.embedder.recorder().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_ordered() {
        let g35 = ModelSpec::gpt35();
        let g4 = ModelSpec::gpt4();
        assert!(g4.label_slip < g35.label_slip);
        assert!(g4.plan_slip < g35.plan_slip);
        assert!(g4.demo_weight > g35.demo_weight);
        assert!(g4.embed.dims > g35.embed.dims);
    }

    #[test]
    fn slips_deterministic_and_rate_respected() {
        let spec = ModelSpec::gpt4();
        assert_eq!(spec.slips("ns", "input", 0.5), spec.slips("ns", "input", 0.5));
        let fires: usize = (0..10_000)
            .filter(|i| spec.slips("ns", &format!("input-{i}"), 0.1))
            .count();
        let rate = fires as f64 / 10_000.0;
        assert!((rate - 0.1).abs() < 0.02, "empirical rate {rate}");
        // Rate 0 never fires; rate 1 always fires.
        assert!(!spec.slips("ns", "x", 0.0));
        assert!(spec.slips("ns", "x", 1.0));
    }

    #[test]
    fn temperature_scales_noise() {
        let hot = ChatOptions { temperature: 1.0 };
        assert!(hot.noise_scale() > ChatOptions::default().noise_scale());
    }
}
