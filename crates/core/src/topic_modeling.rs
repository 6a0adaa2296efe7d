//! Stage 2 — abstractive topic modeling with human-in-the-loop refinement
//! (paper Sec. 3.3, Figs. 4–5).
//!
//! Round 1 (progressive ICL): documents are processed in order; each is
//! summarized into topic phrases against the *current* predefined topic
//! list, and newly coined topics are appended to the list so emerging
//! topics can be detected.
//!
//! HITLR (optional, iterable): the unique round-1 topics are (a) filtered
//! by a simulated reviewer (long-tail and near-duplicate removal — the
//! judgment the paper asks a human to make), (b) clustered with
//! hierarchical agglomerative clustering over their embeddings and each
//! cluster re-summarized by the LLM into a higher-level phrase, and
//! (c) the round-1 (text → topics) assignments are stored in a vector
//! database, low-BARTScore entries filtered out, so round 2 can retrieve
//! extra demonstrations per document. Round 2 re-runs topic modeling with
//! the refined list and augmented demonstrations.

use allhands_embed::Embedding;
use allhands_llm::{
    ChatOptions, Demonstration, SimLlm, SummarizeHead, TopicRequest, TopicResponse,
};
use allhands_resilience::{BreakerState, Head, ResilienceConfig, ResilienceCtx};
use allhands_text::TrigramSet;
use allhands_topics::{agglomerative_clusters, BartScorer, Linkage};
use allhands_vectordb::{IvfIndex, Record};
use std::collections::HashMap;
use std::sync::Arc;

/// Topic-modeling stage configuration.
#[derive(Debug, Clone)]
pub struct TopicModelingConfig {
    /// Run the human-in-the-loop refinement round(s).
    pub hitlr: bool,
    /// Number of refinement rounds (paper: "can be iterated multiple
    /// times").
    pub rounds: usize,
    /// Maximum topics per document.
    pub max_topics_per_doc: usize,
    /// Reviewer policy: drop round-1 topics covering fewer than this
    /// fraction of documents (long-tail removal).
    pub reviewer_min_fraction: f64,
    /// Reviewer policy: cap on the refined topic list size.
    pub reviewer_max_topics: usize,
    /// HAC cosine-distance threshold for merging near-duplicate topics.
    pub cluster_distance: f32,
    /// Extra demonstrations retrieved per document in round 2.
    pub retrieval_n: usize,
    /// BARTScore threshold below which round-1 assignments are excluded
    /// from the retrieval pool.
    pub bart_filter: f64,
    /// Hard cap on the progressive topic list (the prompt's context
    /// window bounds how many candidate topics fit; growth stops there).
    pub max_topic_list: usize,
    /// Generation options.
    pub chat: ChatOptions,
}

impl Default for TopicModelingConfig {
    fn default() -> Self {
        TopicModelingConfig {
            hitlr: true,
            rounds: 1,
            max_topics_per_doc: 2,
            reviewer_min_fraction: 0.003,
            reviewer_max_topics: 40,
            cluster_distance: 0.35,
            retrieval_n: 3,
            bart_filter: -7.2,
            max_topic_list: 150,
            chat: ChatOptions::default(),
        }
    }
}

/// The stage's output. Serializable so the crash journal can snapshot it
/// at the stage-2 boundary.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TopicModelingResult {
    /// Topics per document (≥1 each; "others" when nothing matched).
    pub doc_topics: Vec<Vec<String>>,
    /// The final topic list (predefined + surviving discovered topics).
    pub topic_list: Vec<String>,
    /// Number of topics the reviewer removed across refinement rounds.
    pub reviewer_removed: usize,
    /// Whether HITLR refinement actually ran. `false` either because the
    /// configuration disabled it or because fault pressure made the stage
    /// skip it (see `degradation`).
    pub refined: bool,
    /// Degradation notes for this stage (empty on a clean run).
    pub degradation: Vec<String>,
}

/// The abstractive topic modeler.
pub struct AbstractiveTopicModeler<'a> {
    llm: &'a SimLlm,
    config: TopicModelingConfig,
    /// Resilience context every per-document topic call runs under
    /// (breaker, retries, fault injection, poison pills). The default one
    /// injects nothing and arms no pill, so each call is one attempt.
    resilience: Arc<ResilienceCtx>,
}

impl<'a> AbstractiveTopicModeler<'a> {
    /// Construct for a model and configuration.
    pub fn new(llm: &'a SimLlm, config: TopicModelingConfig) -> Self {
        AbstractiveTopicModeler {
            llm,
            config,
            resilience: Arc::new(ResilienceCtx::new(ResilienceConfig::default())),
        }
    }

    /// Replace the default inert resilience context: per-document topic
    /// assignment degrades to `"others"` when the summarize head stays
    /// unavailable, and HITLR refinement is skipped under fault pressure
    /// (the result is marked unrefined rather than refined on corrupted
    /// round-1 output).
    pub fn with_resilience(mut self, ctx: Arc<ResilienceCtx>) -> Self {
        self.resilience = ctx;
        self
    }

    /// Run the full stage on `texts` with an initial predefined topic list.
    pub fn run(&self, texts: &[String], predefined: &[String]) -> TopicModelingResult {
        let ctx = &self.resilience;
        let rec = ctx.recorder();
        let _stage = rec.span("topics");
        rec.add("topics.docs", texts.len() as u64);
        let speller = Speller::fit(texts);
        // One head for the whole run: round 2 and its retrieved
        // demonstrations reuse the stemmed document vectors round 1 made.
        let head = self.llm.summarize_head();
        let mut topic_list: Vec<String> = predefined.to_vec();
        let (mut doc_topics, round1_degraded, round1_quarantined) = {
            let _round = rec.span("round[0]");
            self.modeling_round(&head, texts, &mut topic_list, &HashMap::new(), &speller)
        };
        let mut reviewer_removed = 0usize;
        let mut degradation: Vec<String> = Vec::new();
        let mut refined = false;

        // Fault pressure: documents already degraded to "others" (head
        // unavailable or quarantined poison), or the summarize breaker no
        // longer closed. Refining on top of corrupted round-1 assignments
        // would launder bad topics into the curated list, so HITLR is
        // skipped and the result marked unrefined.
        let under_pressure = round1_degraded > 0
            || round1_quarantined > 0
            || ctx.breaker_state(Head::Summarize) != BreakerState::Closed;

        if round1_degraded > 0 {
            degradation.push(format!(
                "topic assignment fell back to \"others\" for {round1_degraded} document(s): summarize head unavailable"
            ));
        }
        if round1_quarantined > 0 {
            degradation.push(format!(
                "{round1_quarantined} document(s) quarantined during topic assignment; assigned \"others\""
            ));
        }
        if self.config.hitlr {
            if under_pressure {
                degradation.push(
                    "HITLR refinement skipped under fault pressure; topics are unrefined round-1 output"
                        .to_string(),
                );
            } else {
                for round in 0..self.config.rounds.max(1) {
                    let (refined_list, removed, retrieval) =
                        self.refine(&head, texts, &doc_topics, predefined);
                    reviewer_removed += removed;
                    topic_list = refined_list;
                    let (round_topics, round_degraded, _) = {
                        let _round = rec.span(&format!("round[{}]", round + 1));
                        self.modeling_round(&head, texts, &mut topic_list, &retrieval, &speller)
                    };
                    doc_topics = round_topics;
                    if round_degraded > 0 {
                        degradation.push(format!(
                            "topic assignment fell back to \"others\" for {round_degraded} document(s) during refinement"
                        ));
                    }
                }
                refined = true;
            }
        }
        for note in &degradation {
            ctx.note_degradation_once("topic-modeling", note);
        }
        rec.add("topics.final_list", topic_list.len() as u64);
        rec.add("topics.reviewer_removed", reviewer_removed as u64);
        TopicModelingResult { doc_topics, topic_list, reviewer_removed, refined, degradation }
    }

    /// One bounded progressive-ICL pass for the incremental ingestion path:
    /// assign topics to `texts` against an existing `topic_list`, growing it
    /// in place (still capped by `max_topic_list`). Coined phrases get
    /// spell-normalized against `corpus` — pass the full feedback set so
    /// far, not just `texts`, so normalization is grounded the same way the
    /// one-shot pipeline grounds it. Returns `(doc_topics, degraded,
    /// quarantined)` with [`modeling_round`](Self::run) semantics; the
    /// caller is responsible for turning the counts into degradation notes.
    pub fn assign_pending(
        &self,
        texts: &[String],
        topic_list: &mut Vec<String>,
        corpus: &[String],
    ) -> (Vec<Vec<String>>, usize, usize) {
        let speller = Speller::fit(corpus);
        let head = self.llm.summarize_head();
        self.modeling_round(&head, texts, topic_list, &HashMap::new(), &speller)
    }

    /// One progressive-ICL pass. `retrieval` optionally maps document index
    /// → extra demonstrations (round 2's augmentation). Returns the topics
    /// per document plus how many documents degraded to `"others"` because
    /// the summarize head stayed unavailable, and how many were quarantined
    /// as poison pills.
    fn modeling_round(
        &self,
        head: &SummarizeHead<'_>,
        texts: &[String],
        topic_list: &mut Vec<String>,
        retrieval: &HashMap<usize, Vec<Demonstration>>,
        speller: &Speller,
    ) -> (Vec<Vec<String>>, usize, usize) {
        let ctx = &self.resilience;
        let rec = ctx.recorder();
        let mut out = Vec::with_capacity(texts.len());
        let mut degraded = 0usize;
        let mut quarantined = 0usize;
        for (d, text) in texts.iter().enumerate() {
            // This loop is inherently sequential (the progressive topic
            // list grows document by document), so poison pills are probed
            // without panicking: the doc is dead-lettered with the payload
            // the pill would have carried and the loop moves on.
            if let Some(payload) = ctx.poison_payload(text) {
                ctx.record_quarantine("topic-modeling", &d.to_string(), payload);
                quarantined += 1;
                out.push(vec!["others".to_string()]);
                continue;
            }
            let demonstrations = retrieval.get(&d).cloned().unwrap_or_default();
            let req = TopicRequest {
                text: text.clone(),
                predefined: topic_list.clone(),
                demonstrations,
                max_topics: self.config.max_topics_per_doc,
            };
            let suggested =
                ctx.call(Head::Summarize, |_| Ok(head.suggest_topics(&req, &self.config.chat)));
            let mut response = match suggested {
                Ok(r) => r,
                Err(_) => {
                    // Degraded document: no usable topic assignment.
                    degraded += 1;
                    TopicResponse {
                        topics: vec!["others".to_string()],
                        new_topics: Vec::new(),
                    }
                }
            };
            // An LLM writes topic names in normalized spelling even when the
            // feedback itself is misspelled: coined phrases get corpus-
            // grounded spell normalization before entering the list.
            for topic in response.topics.iter_mut() {
                if response.new_topics.contains(topic) {
                    match speller.normalize_phrase(topic) {
                        Some(clean) => *topic = clean,
                        None => *topic = "others".to_string(),
                    }
                }
            }
            response.topics.dedup();
            // Progressive list growth: discovered topics become candidates
            // for subsequent documents, bounded by the prompt budget.
            for new in response.topics.iter() {
                if new != "others"
                    && !req.predefined.contains(new)
                    && topic_list.len() < self.config.max_topic_list
                    && !topic_list.iter().any(|t| t == new)
                {
                    rec.incr("topics.coined");
                    topic_list.push(new.clone());
                }
            }
            out.push(response.topics);
        }
        (out, degraded, quarantined)
    }

    /// The HITLR step: reviewer filtering + clustering + re-summarization +
    /// BARTScore-filtered retrieval pool construction.
    fn refine(
        &self,
        head: &SummarizeHead<'_>,
        texts: &[String],
        doc_topics: &[Vec<String>],
        predefined: &[String],
    ) -> (Vec<String>, usize, HashMap<usize, Vec<Demonstration>>) {
        // Count topic usage.
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for topics in doc_topics {
            for t in topics {
                *counts.entry(t.as_str()).or_insert(0) += 1;
            }
        }
        // Simulated reviewer, pass 1: drop long-tail and "others".
        let min_count =
            (texts.len() as f64 * self.config.reviewer_min_fraction).ceil() as usize;
        // A topic with no content words ("how do i") is not a topic a
        // reviewer keeps.
        let has_content = |t: &str| {
            allhands_text::light_preprocess(t).iter().any(|w| {
                !allhands_text::is_stopword(w)
                    && !allhands_text::is_filler_word(w)
                    && w.chars().count() >= 3
            })
        };
        let mut unique: Vec<(&str, usize)> = counts
            .iter()
            .map(|(&t, &c)| (t, c))
            .filter(|&(t, c)| {
                t != "others"
                    && has_content(t)
                    && (c >= min_count || predefined.iter().any(|p| p == t))
            })
            .collect();
        unique.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let removed_pass1 = counts.len().saturating_sub(unique.len());

        // Cluster surviving topics and summarize each cluster. Phrase
        // embeddings are independent, so they compute in parallel (each is
        // a pure function of the phrase — order and thread count don't
        // change the vectors).
        let rec = self.resilience.recorder().clone();
        let phrases: Vec<String> = unique.iter().map(|(t, _)| t.to_string()).collect();
        let clusters: Vec<Vec<String>> = {
            let _hac = rec.span("hac");
            let embeddings: Vec<Embedding> = allhands_par::par_map_indexed_recorded(
                &rec,
                "topics.phrase_embed",
                &phrases,
                |_, p| self.llm.embedder().embed(p),
            );
            let assignment = agglomerative_clusters(
                &embeddings,
                Linkage::Average,
                self.config.cluster_distance,
            );
            let n_clusters = assignment.iter().copied().max().map_or(0, |m| m + 1);
            let mut clusters: Vec<Vec<String>> = vec![Vec::new(); n_clusters];
            for (i, &c) in assignment.iter().enumerate() {
                clusters[c].push(phrases[i].clone());
            }
            rec.add("topics.hac_phrases", phrases.len() as u64);
            rec.add("topics.hac_clusters", clusters.iter().filter(|m| !m.is_empty()).count() as u64);
            clusters
        };
        let mut refined: Vec<String> = Vec::new();
        {
            let _merge = rec.span("merge");
            for members in clusters.iter().filter(|m| !m.is_empty()) {
                // Prefer an exact predefined topic inside the cluster (the
                // reviewer keeps curated names); otherwise LLM-summarize.
                let label = members
                    .iter()
                    .find(|m| predefined.iter().any(|p| p == *m))
                    .cloned()
                    .unwrap_or_else(|| head.summarize_cluster(members));
                if !refined.contains(&label) {
                    refined.push(label);
                }
            }
        }
        // Reviewer pass 2: cap the list size (most frequent first — the
        // order of `unique` is by count, and clusters inherit it roughly).
        let removed_pass2 = refined.len().saturating_sub(self.config.reviewer_max_topics);
        refined.truncate(self.config.reviewer_max_topics);

        // Retrieval pool: round-1 (text, topics) pairs that summarize well
        // under the BARTScore filter.
        let scorer = BartScorer::fit(texts);
        let dims = self.llm.embedder().dims();
        // Each document's embedding is needed twice — as its pool record
        // and as its round-2 retrieval query. Compute each exactly once,
        // in parallel (the seed embedded every text twice, serially).
        let doc_embeddings: Vec<Embedding> = allhands_par::par_map_indexed_recorded(
            &rec,
            "topics.doc_embed",
            texts,
            |_, t| self.llm.embedder().embed(t),
        );
        // BARTScore admission decisions are independent per document, so
        // they run in parallel; the serial insert loop below then assigns
        // pool ids in document order, exactly as the seed did.
        let admitted: Vec<Option<String>> =
            allhands_par::par_map_indexed_recorded(&rec, "topics.bart", doc_topics, |d, topics| {
                let label = topics.join("; ");
                if label.is_empty() || topics.iter().all(|t| t == "others") {
                    return None;
                }
                if scorer.score(&label, &texts[d]) < self.config.bart_filter {
                    return None; // low-quality summarization: excluded
                }
                Some(label)
            });
        // IVF index: round-2 retrieves for every document, so an exact scan
        // would be quadratic in corpus size.
        let mut index = IvfIndex::new(dims, 4);
        index.set_recorder(rec.clone());
        let mut pool: Vec<Demonstration> = Vec::new();
        for (d, label) in admitted.into_iter().enumerate() {
            let Some(label) = label else { continue };
            let id = pool.len() as u64;
            pool.push(Demonstration { input: texts[d].clone(), output: label });
            index.insert(Record::new(id, doc_embeddings[d].clone()));
        }
        rec.add("topics.retrieval_pool", pool.len() as u64);
        if pool.len() > 512 {
            index.train((pool.len() / 64).clamp(8, 64));
        }
        let mut retrieval: HashMap<usize, Vec<Demonstration>> = HashMap::new();
        if self.config.retrieval_n > 0 && !pool.is_empty() {
            // The index is read-only from here, so per-document retrieval
            // queries are independent and run in parallel.
            let per_doc: Vec<Vec<Demonstration>> =
                allhands_par::par_map_indexed_recorded(&rec, "topics.retrieve", texts, |d, _| {
                    index
                        .search(&doc_embeddings[d], self.config.retrieval_n)
                        .into_iter()
                        .map(|hit| pool[hit.id as usize].clone())
                        .collect()
                });
            for (d, demos) in per_doc.into_iter().enumerate() {
                retrieval.insert(d, demos);
            }
        }
        (refined, removed_pass1 + removed_pass2, retrieval)
    }
}

/// Corpus-grounded spell normalization for coined topic phrases: rare
/// surface forms are snapped to the most frequent trigram-similar corpus
/// word; unknown junk is dropped.
struct Speller {
    /// Frequent corpus words, most frequent first, each after its trigram
    /// set, which is built once here rather than once per comparison.
    common: Vec<(TrigramSet, String)>,
    /// Full frequency table.
    freq: HashMap<String, usize>,
}

impl Speller {
    fn fit(texts: &[String]) -> Speller {
        let mut freq: HashMap<String, usize> = HashMap::new();
        for text in texts {
            for w in allhands_text::light_preprocess(text) {
                if !w.starts_with('<') {
                    *freq.entry(w).or_insert(0) += 1;
                }
            }
        }
        let mut common: Vec<(String, usize)> = freq
            .iter()
            .filter(|&(w, &c)| c >= 20 && w.chars().count() >= 3)
            .map(|(w, &c)| (w.clone(), c))
            .collect();
        common.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        common.truncate(800);
        let common = common.into_iter().map(|(w, _)| (TrigramSet::new(&w), w)).collect();
        Speller { common, freq }
    }

    /// Normalize one word: keep if common, snap to the best similar common
    /// word, or drop (`None`).
    fn normalize_word(&self, word: &str) -> Option<String> {
        if self.freq.get(word).copied().unwrap_or(0) >= 8 {
            return Some(word.to_string());
        }
        let grams = TrigramSet::new(word);
        let mut best: Option<(&str, f32)> = None;
        for (candidate_grams, candidate) in &self.common {
            let sim = grams.jaccard(candidate_grams);
            if sim >= 0.5 && best.is_none_or(|(_, b)| sim > b) {
                best = Some((candidate, sim));
            }
        }
        best.map(|(w, _)| w.to_string())
    }

    /// Normalize a phrase; `None` when no word survives.
    fn normalize_phrase(&self, phrase: &str) -> Option<String> {
        let words: Vec<String> = phrase
            .split_whitespace()
            .filter_map(|w| self.normalize_word(w))
            .collect();
        if words.is_empty() {
            None
        } else {
            Some(words.join(" "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts() -> Vec<String> {
        let mut out = Vec::new();
        for i in 0..20 {
            out.push(format!("the app crashes with an error {i}"));
            out.push(format!("please add a dark mode option {i}"));
        }
        // A noise document with no content.
        out.push("!!!".to_string());
        out
    }

    #[test]
    fn round1_assigns_predefined_topics() {
        let llm = SimLlm::gpt4();
        let modeler = AbstractiveTopicModeler::new(
            &llm,
            TopicModelingConfig { hitlr: false, ..Default::default() },
        );
        let result = modeler.run(&texts(), &["crash".into(), "feature request".into()]);
        assert_eq!(result.doc_topics.len(), 41);
        // Crash documents land on "crash".
        assert!(result.doc_topics[0].contains(&"crash".to_string()));
        // The noise document lands on "others".
        assert_eq!(result.doc_topics[40], vec!["others".to_string()]);
    }

    #[test]
    fn progressive_list_grows_on_novel_themes() {
        let llm = SimLlm::gpt4();
        let modeler = AbstractiveTopicModeler::new(
            &llm,
            TopicModelingConfig { hitlr: false, ..Default::default() },
        );
        // No predefined topic matches the battery theme.
        let battery: Vec<String> = (0..10)
            .map(|i| format!("battery drains overnight battery drain issue {i}"))
            .collect();
        let result = modeler.run(&battery, &["crash".into()]);
        assert!(
            result.topic_list.len() > 1,
            "expected a discovered topic, got {:?}",
            result.topic_list
        );
    }

    #[test]
    fn hitlr_prunes_long_tail() {
        let llm = SimLlm::gpt35(); // noisier: coins more spurious topics
        let no_hitlr = AbstractiveTopicModeler::new(
            &llm,
            TopicModelingConfig { hitlr: false, ..Default::default() },
        )
        .run(&texts(), &["crash".into(), "feature request".into()]);
        let with_hitlr = AbstractiveTopicModeler::new(
            &llm,
            TopicModelingConfig {
                hitlr: true,
                reviewer_min_fraction: 0.05,
                ..Default::default()
            },
        )
        .run(&texts(), &["crash".into(), "feature request".into()]);
        assert!(
            with_hitlr.topic_list.len() <= no_hitlr.topic_list.len(),
            "HITLR should not grow the list: {} vs {}",
            with_hitlr.topic_list.len(),
            no_hitlr.topic_list.len()
        );
    }

    #[test]
    fn chaos_skips_hitlr_and_marks_unrefined() {
        use allhands_resilience::{ResilienceConfig, ResilienceCtx};
        let llm = SimLlm::gpt4();
        let run = || {
            let ctx = Arc::new(ResilienceCtx::new(ResilienceConfig::chaos(3, 0.9)));
            AbstractiveTopicModeler::new(&llm, TopicModelingConfig::default())
                .with_resilience(ctx)
                .run(&texts(), &["crash".into(), "feature request".into()])
        };
        let result = run();
        // Degrades, never fails: every document still gets ≥1 topic.
        assert_eq!(result.doc_topics.len(), 41);
        assert!(result.doc_topics.iter().all(|t| !t.is_empty()));
        // At 0.9 fault rate round 1 degrades documents, so refinement is
        // skipped and the output marked unrefined with explicit notes.
        assert!(!result.refined);
        assert!(result.degradation.iter().any(|d| d.contains("HITLR")), "{:?}", result.degradation);
        assert!(result.degradation.iter().any(|d| d.contains("others")), "{:?}", result.degradation);
        // Same seed ⇒ identical degraded output.
        let again = run();
        assert_eq!(result.doc_topics, again.doc_topics);
        assert_eq!(result.degradation, again.degradation);
    }

    #[test]
    fn clean_run_is_refined_with_no_notes() {
        let llm = SimLlm::gpt4();
        let result = AbstractiveTopicModeler::new(&llm, TopicModelingConfig::default())
            .run(&texts(), &["crash".into()]);
        assert!(result.refined);
        assert!(result.degradation.is_empty());
    }

    #[test]
    fn deterministic() {
        let llm = SimLlm::gpt4();
        let config = TopicModelingConfig::default();
        let a = AbstractiveTopicModeler::new(&llm, config.clone()).run(&texts(), &["crash".into()]);
        let b = AbstractiveTopicModeler::new(&llm, config).run(&texts(), &["crash".into()]);
        assert_eq!(a.doc_topics, b.doc_topics);
        assert_eq!(a.topic_list, b.topic_list);
    }
}
