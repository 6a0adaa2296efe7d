//! The ICL classification head (paper Sec. 3.2).
//!
//! Scoring blends two signals, exactly the two a real LLM uses:
//!
//! 1. a **zero-shot prior**: similarity between the feedback and a gloss of
//!    each candidate label (the model's "pretraining knowledge" of what
//!    e.g. *apparent bug* means);
//! 2. a **demonstration vote**: similarity-weighted votes from the
//!    retrieved in-context examples, scaled by the tier's
//!    [`demo_weight`](crate::ModelSpec::demo_weight).
//!
//! A deterministic, hash-keyed label slip models residual LLM error. With
//! no demonstrations the head is a pure zero-shot classifier — that is the
//! paper's zero-shot configuration.

use crate::model::{ChatOptions, ModelSpec, ModelTier};
use crate::prompt::{Demonstration, ScoredDemonstration};
use allhands_embed::{Embedding, SentenceEmbedder};
use allhands_text::TrigramSet;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, RwLock};

/// Everything the zero-shot prior needs about one label, computed once per
/// head: the stem set and each gloss word's trigram set (for lexical
/// affinity), and the gloss embedding. Labels are fixed strings, so none of
/// this depends on the text being classified — caching it removes an
/// embed-per-(text × label) and a trigram-set build per (content word ×
/// gloss word) from the hot loop without changing a single output bit.
struct GlossEntry {
    trigrams: Vec<TrigramSet>,
    stems: HashSet<String>,
    embedding: Embedding,
}

/// The classification head; borrows the model's spec and embedder.
///
/// The head carries a per-label gloss cache (see [`GlossEntry`]); reuse one
/// head across a batch of classifications (as `IclClassifier` does) to
/// amortize gloss embedding over the whole batch. The cache is behind a
/// read/write lock: after the handful of label glosses are built (or
/// [`prewarm`](ClassifyHead::prewarm)ed), a parallel scoring loop takes
/// only shared read locks — no serialization point on the hot path.
pub struct ClassifyHead<'a> {
    spec: &'a ModelSpec,
    embedder: &'a SentenceEmbedder,
    gloss_cache: RwLock<HashMap<String, Arc<GlossEntry>>>,
}

/// "Pretraining knowledge": characteristic vocabulary per well-known label.
/// Unknown labels fall back to their own wording.
fn label_gloss(label: &str, tier: ModelTier) -> String {
    let base: &str = match label.to_lowercase().as_str() {
        "informative" => {
            "bug crash error issue problem broken feature request add option slow lag \
             performance login update battery sync notification ads interface stable fix help \
             outage servers down borked janky cooked buggin unusable sign"
        }
        "non-informative" => {
            "lol ok cool nice whatever hmm just guess weather dinner weekend game \
             viral trend ratio fyp mid sticker stickers emoji obsessed moment feed"
        }
        "actionable" => {
            "wrong incorrect irrelevant results broken missing slow timeout error ads layout \
             translation image generation mistake fix points voice speech recognition microphone \
             falsch kaputt roto incorrectas cassé fausses quebrado erradas problema problem \
             unbrauchbar unzuverlässig anfrage inservible inestable consulta inutilisable \
             instable requête inutilizável instável ergebnisse resultados résultats búsqueda \
             langsam lento lent werbung anuncios publicités bild imagen imagem"
        }
        "non-actionable" => {
            "love great thanks bad terrible hate testing hello whatever asdf \
             morning merry xmas holidays greetings saying hi"
        }
        "apparent bug" => {
            "bug crash error broken glitch freeze hang artifacts stutter sync no sound \
             hardware acceleration gpu rendering flickers garbage frames"
        }
        "feature request" => "add feature please consider would perfect shortcut theme export option",
        "user setup" => {
            "install installer setup fails enable instructions spell check dont get \
             telemetry data collection privacy toggle switch"
        }
        "application guidance" => "guide documentation wiki tutorial explains settings configuring",
        "requesting more information" => "post provide logs version information diagnose steps reproduce",
        "user error" => "mistake sorry turns out misread overlooked works fine wrong folder noise",
        "questions on functionality" => {
            "which how do need format plugin codec stopped working \
             extension signing addon disabled unsigned bypass"
        }
        "help seeking" => "stuck help assistance any ideas appreciated still trying everything",
        "dissatisfaction" => "slow memory cpu too much tabs delay disappointed worse",
        "acknowledgement" => "thanks that worked solved appreciate marking did it",
        "others" => "certificate bookmarks favorites https intranet vanished",
        _ => "",
    };
    if base.is_empty() {
        return label.to_string();
    }
    match tier {
        // The smaller model has shallower label knowledge: it only sees the
        // first half of the gloss.
        ModelTier::Gpt35 => {
            let words: Vec<&str> = base.split_whitespace().collect();
            let half = &words[..words.len() / 2];
            format!("{label} {}", half.join(" "))
        }
        ModelTier::Gpt4 => format!("{label} {base}"),
    }
}

/// Stemmed content tokens of a text (stopwords, placeholders, emoji
/// dropped).
fn content_stems(text: &str) -> Vec<String> {
    allhands_text::preprocess(text)
        .into_iter()
        .filter(|t| !t.starts_with('<') && allhands_text::extract_emoji(t).is_empty())
        .collect()
}

/// Fraction of the text's content words the gloss recognizes (exact stem
/// match = 1.0 credit; fuzzy trigram match = 0.7 credit when `fuzzy` holds
/// the content words' trigram sets, aligned with `text_tokens`).
fn lexical_affinity(
    text_tokens: &[String],
    fuzzy: Option<&[TrigramSet]>,
    gloss: &GlossEntry,
) -> f32 {
    if text_tokens.is_empty() {
        return 0.0;
    }
    let mut credit = 0.0f32;
    for (i, tok) in text_tokens.iter().enumerate() {
        if gloss.stems.contains(tok) {
            credit += 1.0;
        } else if fuzzy
            .is_some_and(|sets| gloss.trigrams.iter().any(|g| sets[i].jaccard(g) > 0.45))
        {
            credit += 0.7;
        }
    }
    credit / text_tokens.len().max(3) as f32
}

impl<'a> ClassifyHead<'a> {
    /// Construct from a model's spec + embedder.
    pub fn new(spec: &'a ModelSpec, embedder: &'a SentenceEmbedder) -> Self {
        ClassifyHead { spec, embedder, gloss_cache: RwLock::new(HashMap::new()) }
    }

    /// Build the gloss entries for `labels` up front, so a parallel batch
    /// takes only shared read locks afterwards (the label set is known at
    /// fit time; without prewarming, the first items of a batch race to
    /// build the same handful of entries).
    pub fn prewarm(&self, labels: &[String]) {
        for label in labels {
            let _ = self.gloss_entry(label);
        }
    }

    /// The label's cached gloss entry, computing it on first use. Lock
    /// poisoning is survived on both paths (the data is insert-only and
    /// rebuildable, so a poisoned map is still valid).
    fn gloss_entry(&self, label: &str) -> Arc<GlossEntry> {
        {
            let cache = self.gloss_cache.read().unwrap_or_else(|p| p.into_inner());
            if let Some(hit) = cache.get(label) {
                self.embedder.recorder().vincr("llm.classify.gloss_hits");
                return Arc::clone(hit);
            }
        }
        // Racing threads may build the same entry concurrently, so build
        // counts are thread-schedule-dependent: volatile metric.
        self.embedder.recorder().vincr("llm.classify.gloss_builds");
        // Built outside the lock; a racing thread builds identical data.
        let gloss = label_gloss(label, self.spec.tier);
        let words: Vec<String> = allhands_text::light_preprocess(&gloss);
        let stems = words.iter().map(|w| allhands_text::porter_stem(w)).collect();
        let trigrams = words.iter().map(|w| TrigramSet::new(w)).collect();
        let embedding = self.embedder.embed(&gloss);
        let entry = Arc::new(GlossEntry { trigrams, stems, embedding });
        Arc::clone(
            self.gloss_cache
                .write()
                .unwrap_or_else(|p| p.into_inner())
                .entry(label.to_string())
                .or_insert(entry),
        )
    }

    /// Classify `text` into one of `labels`, optionally with retrieved
    /// demonstrations. Returns the winning label.
    ///
    /// Panics if `labels` is empty.
    pub fn classify(
        &self,
        text: &str,
        labels: &[String],
        demonstrations: &[Demonstration],
        opts: &ChatOptions,
    ) -> String {
        let text_emb = self.embedder.embed(text);
        // Demo inputs are embedded here (the caller holds only raw
        // demonstrations); batch pipelines use [`classify_embedded`] with
        // the retrieval scores instead.
        let scored: Vec<ScoredDemonstration> = demonstrations
            .iter()
            .map(|demo| ScoredDemonstration {
                output: &demo.output,
                score: text_emb.cosine(&self.embedder.embed(&demo.input)),
            })
            .collect();
        self.classify_embedded(text, &text_emb, labels, &scored, opts)
    }

    /// [`classify`](Self::classify) with every similarity precomputed: the
    /// text's embedding (`text_emb`, which must be this head's
    /// `embed(text)`) and each demonstration's score against it. The head
    /// then calls the embedder only for glosses it has not cached. A batch
    /// pipeline embeds each document once, uses that vector as its
    /// retrieval query, and passes the hits' scores here; the index scores
    /// a hit bit for bit as `text_emb.cosine(&embed(demo.input))`, so the
    /// output is bit-identical to `classify` with the same demos.
    pub fn classify_embedded(
        &self,
        text: &str,
        text_emb: &Embedding,
        labels: &[String],
        demonstrations: &[ScoredDemonstration],
        opts: &ChatOptions,
    ) -> String {
        let votes = self.demo_votes(labels, demonstrations);
        self.decide(text, text_emb, labels, &votes, opts)
    }

    /// Per-demo (label index, similarity) votes.
    fn demo_votes(&self, labels: &[String], demos: &[ScoredDemonstration]) -> Vec<(usize, f32)> {
        demos
            .iter()
            .filter_map(|demo| {
                labels
                    .iter()
                    .position(|l| l.eq_ignore_ascii_case(demo.output))
                    .map(|idx| (idx, demo.score.max(0.0)))
            })
            .collect()
    }

    /// Each content word's trigram set for the fuzzy gloss match, on the
    /// tier that has one (GPT-4); `None` on GPT-3.5.
    fn fuzzy_trigrams(&self, text_tokens: &[String]) -> Option<Vec<TrigramSet>> {
        (self.spec.tier == ModelTier::Gpt4)
            .then(|| text_tokens.iter().map(|t| TrigramSet::new(t)).collect())
    }

    /// Blend the zero-shot prior with demonstration votes and pick a label.
    fn decide(
        &self,
        text: &str,
        text_emb: &Embedding,
        labels: &[String],
        sims: &[(usize, f32)],
        opts: &ChatOptions,
    ) -> String {
        assert!(!labels.is_empty(), "need at least one candidate label");
        // One decision per document, regardless of thread layout.
        self.embedder.recorder().incr("llm.classify.calls");

        // Zero-shot prior: token-level affinity between the text and each
        // label's gloss (how many of the text's content words the model
        // recognizes as characteristic of the label), blended with a
        // whole-sentence embedding similarity. The larger model also
        // fuzzy-matches misspelled words via character trigrams — a
        // subword-tokenizer capability the smaller tier lacks. Gloss
        // preprocessing and embeddings come from the per-head cache; each
        // content word's trigram set is built once per document.
        let text_tokens = content_stems(text);
        let fuzzy = self.fuzzy_trigrams(&text_tokens);
        let mut scores: Vec<f32> = labels
            .iter()
            .map(|label| {
                let gloss = self.gloss_entry(label);
                let cosine = text_emb.cosine(&gloss.embedding).max(0.0);
                let lexical = lexical_affinity(&text_tokens, fuzzy.as_deref(), &gloss);
                lexical + 0.5 * cosine
            })
            .collect();

        // Demonstration votes, attention-style: each demo's weight is its
        // sharpened similarity normalized over all demos, and the whole
        // vote block is gated by the best similarity — so highly relevant
        // demonstrations dominate the prior, while a sheaf of weakly
        // related examples (e.g. for an emerging topic absent from the
        // pool) barely moves it. This is how real ICL behaves: irrelevant
        // shots don't override pretraining knowledge.
        let total: f32 = sims.iter().map(|&(_, s)| s * s * s).sum();
        if total > f32::EPSILON {
            let relevance = sims.iter().map(|&(_, s)| s).fold(0.0f32, f32::max);
            let gate = self.spec.demo_weight * relevance * relevance * relevance;
            for &(idx, s) in sims {
                scores[idx] += gate * (s * s * s) / total;
            }
        }

        // Argmax, ties broken by candidate order (prompt order, like an LLM
        // biased toward earlier options).
        let (mut best, mut second) = (0usize, 0usize);
        for (i, &s) in scores.iter().enumerate() {
            if s > scores[best] {
                second = best;
                best = i;
            } else if i != best && (s > scores[second] || second == best) {
                second = i;
            }
        }

        // Residual model error: deterministic slip to the runner-up.
        let slip_rate = self.spec.label_slip * opts.noise_scale();
        if labels.len() > 1 && self.spec.slips("classify", text, slip_rate) {
            return labels[second].clone();
        }
        labels[best].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SimLlm;

    fn labels() -> Vec<String> {
        vec!["informative".to_string(), "non-informative".to_string()]
    }

    #[test]
    fn zero_shot_uses_pretraining_gloss() {
        let llm = SimLlm::gpt4();
        let head = llm.classify_head();
        let opts = ChatOptions::default();
        assert_eq!(
            head.classify("the app crashes with an error on startup", &labels(), &[], &opts),
            "informative"
        );
        assert_eq!(
            head.classify("lol ok whatever", &labels(), &[], &opts),
            "non-informative"
        );
    }

    #[test]
    fn demonstrations_override_weak_prior() {
        let llm = SimLlm::gpt4();
        let head = llm.classify_head();
        let opts = ChatOptions::default();
        // An ambiguous text; demos say near-identical texts are informative.
        let text = "the cheetah filter vanished from my camera";
        let demos = vec![
            Demonstration {
                input: "the cheetah filter vanished after update".into(),
                output: "informative".into(),
            },
            Demonstration {
                input: "cheetah filter is gone from camera".into(),
                output: "informative".into(),
            },
        ];
        assert_eq!(head.classify(text, &labels(), &demos, &opts), "informative");
    }

    #[test]
    fn deterministic_at_temperature_zero() {
        let llm = SimLlm::gpt35();
        let head = llm.classify_head();
        let opts = ChatOptions::default();
        let a = head.classify("some ambiguous feedback text", &labels(), &[], &opts);
        let b = head.classify("some ambiguous feedback text", &labels(), &[], &opts);
        assert_eq!(a, b);
    }

    #[test]
    fn slips_happen_at_spec_rate() {
        // Force rate 1: the head must return the runner-up, not the winner.
        let mut spec = crate::ModelSpec::gpt4();
        spec.label_slip = 1.0;
        let llm = SimLlm::new(spec);
        let head = llm.classify_head();
        let out = head.classify(
            "the app crashes with an error on startup",
            &labels(),
            &[],
            &ChatOptions::default(),
        );
        assert_eq!(out, "non-informative"); // slipped to second-best
    }

    #[test]
    fn embedded_demos_match_plain_classify() {
        // The cached/embedded fast path must be bit-identical to the
        // original per-call-embedding path.
        let llm = SimLlm::gpt4();
        let head = llm.classify_head();
        let opts = ChatOptions::default();
        let demos = vec![
            Demonstration { input: "the cheetah filter vanished after update".into(), output: "informative".into() },
            Demonstration { input: "lol cool whatever".into(), output: "non-informative".into() },
        ];
        for text in [
            "the cheetah filter vanished from my camera",
            "crash error on startup",
            "ok lol",
            "some ambiguous feedback text",
        ] {
            let text_emb = llm.embedder().embed(text);
            let scored: Vec<ScoredDemonstration> = demos
                .iter()
                .map(|d| ScoredDemonstration {
                    output: &d.output,
                    score: text_emb.cosine(&llm.embedder().embed(&d.input)),
                })
                .collect();
            assert_eq!(
                head.classify(text, &labels(), &demos, &opts),
                head.classify_embedded(text, &text_emb, &labels(), &scored, &opts),
                "paths diverged on {text:?}"
            );
        }
    }

    #[test]
    fn misspelled_word_earns_fuzzy_credit_only_on_gpt4() {
        // "crashh" is no gloss stem, but its trigrams overlap "crash" (4 of
        // 7 distinct), past the 0.45 bar.
        let misspelled = content_stems("crashh");
        assert_eq!(misspelled, ["crashh"]);
        let exact = content_stems("crash");
        for (llm, fuzzy_credit) in [(SimLlm::gpt4(), 0.7f32), (SimLlm::gpt35(), 0.0)] {
            let head = llm.classify_head();
            let gloss = head.gloss_entry("informative");
            let affinity = |tokens: &[String]| {
                lexical_affinity(tokens, head.fuzzy_trigrams(tokens).as_deref(), &gloss)
            };
            // One content word, so credit is divided by the floor of 3.
            assert_eq!(affinity(&exact), 1.0 / 3.0, "{:?}", llm.spec().tier);
            assert_eq!(affinity(&misspelled), fuzzy_credit / 3.0, "{:?}", llm.spec().tier);
        }
    }

    #[test]
    fn out_of_set_demo_labels_ignored() {
        let llm = SimLlm::gpt4();
        let head = llm.classify_head();
        let demos = vec![Demonstration { input: "crash".into(), output: "bogus-label".into() }];
        let out = head.classify("crash report", &labels(), &demos, &ChatOptions::default());
        assert!(labels().contains(&out));
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_labels_panics() {
        let llm = SimLlm::gpt4();
        llm.classify_head()
            .classify("text", &[], &[], &ChatOptions::default());
    }
}
