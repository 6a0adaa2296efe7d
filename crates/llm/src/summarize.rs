//! The abstractive topic-modeling head (paper Sec. 3.3) and suggestion
//! text generation (used for open-ended "Suggestion" answers).
//!
//! Topic assignment scores each candidate topic by (a) semantic similarity
//! between the feedback and the topic phrase, and (b) similarity-weighted
//! votes from demonstrations whose output is that topic. When no candidate
//! clears the match threshold the head *abstracts a new topic phrase* from
//! the feedback's salient content words — this is the progressive-ICL
//! behaviour where "new topics can be generated in addition to the
//! predefined list". Feedback too thin to summarize lands in "others".

use crate::model::{ChatOptions, ModelSpec, ModelTier};
use crate::prompt::Demonstration;
use allhands_embed::{cosine_from_parts, dot_slices, EmbedMemo, Embedding, SentenceEmbedder};
use allhands_text::{light_preprocess, porter_stem, is_stopword};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// A request to the topic head.
#[derive(Debug, Clone)]
pub struct TopicRequest {
    /// The feedback to summarize (English rendering for multilingual data).
    pub text: String,
    /// Predefined topic list (grows over the progressive ICL run).
    pub predefined: Vec<String>,
    /// Demonstrations mapping example feedback → topic labels.
    pub demonstrations: Vec<Demonstration>,
    /// Maximum topics to emit per feedback.
    pub max_topics: usize,
}

/// The head's answer.
#[derive(Debug, Clone, PartialEq)]
pub struct TopicResponse {
    /// Assigned topics (1..=max_topics), possibly including new phrases.
    pub topics: Vec<String>,
    /// The subset of `topics` not in the predefined list (newly coined).
    pub new_topics: Vec<String>,
}

/// A candidate topic as the head scores it: its content stems (for the
/// containment check), and its stemmed embedding with that vector's norm.
/// None of it depends on the document being scored.
struct PreparedTopic {
    stems: Vec<String>,
    embedding: Embedding,
    norm: f32,
}

/// The topic-modeling head.
///
/// Everything that depends only on a candidate is computed once per head:
/// each topic is prepared (see [`PreparedTopic`]) the first time a request
/// lists it, so scoring a (document, topic) pair is one dot product over
/// cached norms plus a stem-containment check. A memo keeps the stemmed
/// embedding of every document and demonstration input the head has seen,
/// so a text scored again — in a later round, or as a retrieved
/// demonstration — is not re-embedded. Reuse one head for a whole run (as
/// the topic modeler does: round 1, HITLR and round 2) to get the
/// amortization; outputs are bit-identical either way. The memo holds one
/// vector per distinct text for the head's lifetime.
pub struct SummarizeHead<'a> {
    spec: &'a ModelSpec,
    embedder: &'a SentenceEmbedder,
    phrase_memo: EmbedMemo<'a>,
    topics: RwLock<HashMap<String, Arc<PreparedTopic>>>,
}

impl<'a> SummarizeHead<'a> {
    /// Construct from a model's spec + embedder.
    pub fn new(spec: &'a ModelSpec, embedder: &'a SentenceEmbedder) -> Self {
        SummarizeHead {
            spec,
            embedder,
            phrase_memo: EmbedMemo::new(embedder),
            topics: RwLock::new(HashMap::new()),
        }
    }

    /// Embedding of `raw`'s stemmed form, cached under the raw string so a
    /// repeated text skips both the stemming and the embedding.
    fn embed_stemmed(&self, raw: &str) -> Embedding {
        self.phrase_memo
            .embed_keyed(raw, |embedder| embedder.embed(&stem_join(raw)))
    }

    /// The topic's prepared entry, built on first use. Like the classify
    /// head's gloss cache, the map is insert-only and rebuildable, so a
    /// poisoned lock is still valid, and a racing build yields identical
    /// data.
    fn prepared_topic(&self, topic: &str) -> Arc<PreparedTopic> {
        if let Some(hit) = self.topics.read().unwrap_or_else(|p| p.into_inner()).get(topic) {
            return Arc::clone(hit);
        }
        let stems = light_preprocess(topic)
            .iter()
            .filter(|w| !is_stopword(w))
            .map(|w| porter_stem(w))
            .collect();
        let embedding = self.embed_stemmed(topic);
        let norm = embedding.norm();
        let prepared = Arc::new(PreparedTopic { stems, embedding, norm });
        Arc::clone(
            self.topics
                .write()
                .unwrap_or_else(|p| p.into_inner())
                .entry(topic.to_string())
                .or_insert(prepared),
        )
    }

    /// Match threshold below which a new topic is coined. The larger model
    /// discriminates better, so it can afford a higher bar.
    fn match_threshold(&self) -> f32 {
        match self.spec.tier {
            ModelTier::Gpt35 => 0.16,
            ModelTier::Gpt4 => 0.14,
        }
    }

    /// Assign topics to one feedback.
    pub fn suggest_topics(&self, req: &TopicRequest, opts: &ChatOptions) -> TopicResponse {
        self.embedder.recorder().incr("llm.summarize.calls");
        // Feedback with fewer than two content words is unclassifiable —
        // an LLM answers "others" rather than force a match.
        let content_words: Vec<String> = light_preprocess(&req.text)
            .into_iter()
            .filter(|w| {
                !w.starts_with('<')
                    && !is_stopword(w)
                    && !allhands_text::is_filler_word(w)
                    && allhands_text::extract_emoji(w).is_empty()
                    && w.chars().count() >= 3
            })
            .map(|w| porter_stem(&w))
            .collect();
        if content_words.len() < 2 {
            return TopicResponse { topics: vec!["others".to_string()], new_topics: Vec::new() };
        }
        // Match in stemmed space so inflections ("crashing" vs the topic
        // "crash") land together — the lexical normalization a real LLM
        // performs implicitly.
        let text_emb = self.embed_stemmed(&req.text);
        let text_norm = text_emb.norm();
        let max_topics = req.max_topics.max(1);

        // Score predefined topics: phrase similarity + lexical containment
        // (topic words literally present in the text) + demonstration votes.
        let mut scores: HashMap<&str, f32> = HashMap::new();
        for topic in &req.predefined {
            let prepared = self.prepared_topic(topic);
            let dot = dot_slices(text_emb.as_slice(), prepared.embedding.as_slice());
            let sim = cosine_from_parts(dot, text_norm, prepared.norm).max(0.0);
            let contained = if prepared.stems.is_empty() {
                0.0
            } else {
                prepared
                    .stems
                    .iter()
                    .filter(|s| content_words.contains(s))
                    .count() as f32
                    / prepared.stems.len() as f32
            };
            scores.insert(topic.as_str(), sim + 0.8 * contained);
        }
        for demo in &req.demonstrations {
            let sim = text_emb.cosine(&self.embed_stemmed(&demo.input)).max(0.0);
            for topic in demo.output.split(';').map(str::trim) {
                if let Some(s) = scores.get_mut(topic) {
                    *s += self.spec.demo_weight * 0.3 * sim * sim;
                }
            }
        }

        let mut ranked: Vec<(&str, f32)> = scores.into_iter().collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(b.0)));

        let threshold = self.match_threshold();
        let mut topics: Vec<String> = Vec::new();
        if let Some(&(best, best_score)) = ranked.first() {
            if best_score >= threshold {
                topics.push(best.to_string());
                // A clearly co-present second topic.
                if let Some(&(second, second_score)) = ranked.get(1) {
                    if topics.len() < max_topics
                        && second_score >= threshold
                        && second_score >= 0.65 * best_score
                    {
                        topics.push(second.to_string());
                    }
                }
            }
        }

        let mut new_topics = Vec::new();
        if topics.is_empty() {
            // Abstract a new phrase from salient content words.
            match salient_phrase(&req.text) {
                Some(phrase) => {
                    new_topics.push(phrase.clone());
                    topics.push(phrase);
                }
                None => topics.push("others".to_string()),
            }
        }

        // Hallucination slip: the weaker model sometimes replaces a good
        // label with an over-specific literal excerpt (the failure mode
        // Table 4 shows for CTM, at a much lower rate here).
        let rate = self.spec.topic_hallucination * opts.noise_scale();
        if self.spec.slips("topic-hallucinate", &req.text, rate) {
            if let Some(phrase) = literal_excerpt(&req.text) {
                let last = topics.last_mut().expect("topics never empty here");
                if *last != phrase {
                    new_topics.retain(|t| t != last);
                    *last = phrase.clone();
                    new_topics.push(phrase);
                }
            }
        }
        TopicResponse { topics, new_topics }
    }

    /// Summarize a cluster of topic phrases into one representative label
    /// (used by HITLR's cluster-and-summarize step): the phrase closest to
    /// the cluster centroid, shortened to ≤ 4 words.
    pub fn summarize_cluster(&self, phrases: &[String]) -> String {
        self.embedder.recorder().incr("llm.summarize.cluster_calls");
        if phrases.is_empty() {
            return "others".to_string();
        }
        let embeddings: Vec<_> = phrases.iter().map(|p| self.embedder.embed(p)).collect();
        let centroid = allhands_embed::Embedding::mean(&embeddings).expect("non-empty");
        let best = embeddings
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                centroid
                    .cosine(a)
                    .partial_cmp(&centroid.cosine(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
            .unwrap_or(0);
        let words: Vec<&str> = phrases[best].split_whitespace().take(4).collect();
        words.join(" ")
    }
}

/// Stem every token of `text` (lexical normalization for topic matching).
fn stem_join(text: &str) -> String {
    light_preprocess(text)
        .into_iter()
        .map(|t| porter_stem(&t))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Extract a human-readable 1-3 word topic phrase from the feedback's most
/// salient content words; `None` when the text has no content words.
fn salient_phrase(text: &str) -> Option<String> {
    let tokens = light_preprocess(text);
    let mut counts: HashMap<String, (usize, String)> = HashMap::new();
    for tok in &tokens {
        if tok.starts_with('<')
            || is_stopword(tok)
            || tok.chars().count() < 3
            || allhands_text::is_filler_word(tok)
        {
            continue;
        }
        if allhands_text::extract_emoji(tok).len() == tok.chars().count() {
            continue;
        }
        let stem = porter_stem(tok);
        let entry = counts.entry(stem).or_insert((0, tok.clone()));
        entry.0 += 1;
    }
    // Feedback with fewer than two content words carries too little
    // signal to abstract a topic from — it lands in "others".
    let total_content: usize = counts.values().map(|(n, _)| n).sum();
    if counts.is_empty() || total_content < 2 {
        return None;
    }
    let mut ranked: Vec<(String, usize, String)> = counts
        .into_iter()
        .map(|(stem, (n, surface))| (stem, n, surface))
        .collect();
    // Frequency, then longer (more specific) words, then alphabetical.
    ranked.sort_by(|a, b| {
        b.1.cmp(&a.1)
            .then(b.2.len().cmp(&a.2.len()))
            .then(a.2.cmp(&b.2))
    });
    let words: Vec<String> = ranked.into_iter().take(2).map(|(_, _, w)| w).collect();
    Some(words.join(" "))
}

/// A literal excerpt of the first 2-3 *content* words (the hallucinated
/// over-specific label — wordier and more specific than a curated topic,
/// but never pure stopwords).
fn literal_excerpt(text: &str) -> Option<String> {
    let tokens = light_preprocess(text);
    let content: Vec<String> = tokens
        .into_iter()
        .filter(|t| {
            !t.starts_with('<')
                && allhands_text::extract_emoji(t).is_empty()
                && !is_stopword(t)
                && !allhands_text::is_filler_word(t)
                && t.chars().count() >= 3
        })
        .collect();
    if content.len() < 2 {
        return None;
    }
    Some(content[..3.min(content.len())].join(" "))
}

/// Generate suggestion text from topic statistics — the template library
/// the agent uses to answer open-ended "Suggestion" questions. Each
/// negative topic maps to a concrete recommendation.
pub fn suggestion_text(topic_counts: &[(String, f64)], subject: &str) -> String {
    let mut lines = vec![format!(
        "Based on the feedback analysis for {subject}, the most pressing areas and suggested actions are:"
    )];
    for (i, (topic, count)) in topic_counts.iter().take(7).enumerate() {
        let advice = advice_for_topic(topic);
        lines.push(format!(
            "{}. {} ({} mentions): {}",
            i + 1,
            topic,
            *count as i64,
            advice
        ));
    }
    if topic_counts.is_empty() {
        lines.push("No dominant negative topics were found; monitor incoming feedback for emerging issues.".to_string());
    }
    lines.join("\n")
}

fn advice_for_topic(topic: &str) -> &'static str {
    let t = topic.to_lowercase();
    if t.contains("crash") {
        "prioritize crash-fix releases; add crash reporting with stack traces to find the top offenders."
    } else if t.contains("bug") || t.contains("error") {
        "triage the most frequently reported defects and publish fix timelines in release notes."
    } else if t.contains("performance") || t.contains("slow") {
        "profile the slowest paths and set latency budgets; communicate improvements in updates."
    } else if t.contains("feature") {
        "run a feature-voting process and commit to the top community requests on a public roadmap."
    } else if t.contains("ui") || t.contains("interface") || t.contains("layout") {
        "usability-test the redesigned surfaces and provide an option to restore familiar layouts."
    } else if t.contains("login") || t.contains("account") {
        "audit the authentication flow, add clearer error recovery, and reduce forced re-logins."
    } else if t.contains("ads") {
        "review ad load and placement; offer an ad-light tier to retain dissatisfied users."
    } else if t.contains("battery") {
        "measure background power draw and ship a low-power mode."
    } else if t.contains("notification") {
        "fix notification delivery delays and give users finer-grained notification controls."
    } else if t.contains("information") || t.contains("guidance") || t.contains("documentation") {
        "template the information requests: ask for version, platform, logs, and steps to reproduce up front."
    } else if t.contains("result") || t.contains("irrelevant") || t.contains("wrong") || t.contains("incorrect") {
        "improve ranking/answer quality evaluation with human-labeled relevance sets; add a one-click 'wrong result' report."
    } else if t.contains("ai") {
        "add grounding/citation checks to AI answers and an easy path to report hallucinations."
    } else if t.contains("update") {
        "stage rollouts with canary rings so regressions are caught before wide release."
    } else {
        "investigate representative feedback in this cluster and define a targeted improvement."
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SimLlm;

    fn req(text: &str, predefined: &[&str]) -> TopicRequest {
        TopicRequest {
            text: text.to_string(),
            predefined: predefined.iter().map(|s| s.to_string()).collect(),
            demonstrations: Vec::new(),
            max_topics: 2,
        }
    }

    #[test]
    fn assigns_matching_predefined_topic() {
        let llm = SimLlm::gpt4();
        let head = llm.summarize_head();
        let r = head.suggest_topics(
            &req(
                "the app crashes every time I open it, constant crash",
                &["crash", "feature request", "ads"],
            ),
            &ChatOptions::default(),
        );
        assert_eq!(r.topics[0], "crash");
        assert!(r.new_topics.is_empty());
    }

    #[test]
    fn coins_new_topic_when_nothing_matches() {
        let llm = SimLlm::gpt4();
        let head = llm.summarize_head();
        let r = head.suggest_topics(
            &req(
                "the subscription paywall pricing doubled overnight, subscription pricing is outrageous",
                &["crash", "ads"],
            ),
            &ChatOptions::default(),
        );
        assert!(!r.new_topics.is_empty(), "expected a coined topic, got {:?}", r.topics);
        assert!(r.topics[0].contains("subscription") || r.topics[0].contains("pricing"),
            "coined topic should be salient: {:?}", r.topics);
    }

    #[test]
    fn empty_text_goes_to_others() {
        let llm = SimLlm::gpt4();
        let head = llm.summarize_head();
        let r = head.suggest_topics(&req("!!!", &["crash"]), &ChatOptions::default());
        assert_eq!(r.topics, vec!["others"]);
    }

    #[test]
    fn demonstrations_pull_topics() {
        let llm = SimLlm::gpt4();
        let head = llm.summarize_head();
        let mut request = req(
            "spinner twirls forever on launch",
            &["startup hang", "ads"],
        );
        request.demonstrations = vec![Demonstration {
            input: "spinner twirls forever when opening".into(),
            output: "startup hang".into(),
        }];
        let r = head.suggest_topics(&request, &ChatOptions::default());
        assert_eq!(r.topics[0], "startup hang");
    }

    #[test]
    fn reused_head_matches_fresh_heads() {
        // One head serves a pass whose topic list grows and then a second
        // pass over a reordered list, with the first pass's texts as
        // demonstrations (as HITLR hands round 2 a refined list); its
        // cached topics and document vectors must not change any answer a
        // fresh head gives.
        let texts = [
            "the app crashes every time I open it",
            "battery drains overnight since the update",
            "please add a dark mode theme",
            "battery drain is terrible now",
            "crash on startup after the update",
            "dark theme please, my eyes hurt",
            "lol",
        ];
        let opts = ChatOptions::default();
        for llm in [SimLlm::gpt4(), SimLlm::gpt35()] {
            let reused = llm.summarize_head();
            let mut topics = vec!["crash".to_string()];
            for text in texts {
                let request = TopicRequest { predefined: topics.clone(), ..req(text, &[]) };
                let got = reused.suggest_topics(&request, &opts);
                assert_eq!(got, llm.summarize_head().suggest_topics(&request, &opts), "{text:?}");
                for new in got.new_topics {
                    if !topics.contains(&new) {
                        topics.push(new);
                    }
                }
            }
            assert!(topics.len() > 2, "the topic list must grow: {topics:?}");
            topics.reverse();
            for text in texts {
                let request = TopicRequest {
                    predefined: topics.clone(),
                    demonstrations: texts[..3]
                        .iter()
                        .zip(&topics)
                        .map(|(t, topic)| Demonstration {
                            input: t.to_string(),
                            output: topic.clone(),
                        })
                        .collect(),
                    ..req(text, &[])
                };
                let got = reused.suggest_topics(&request, &opts);
                assert_eq!(got, llm.summarize_head().suggest_topics(&request, &opts), "{text:?}");
            }
        }
    }

    #[test]
    fn cluster_summarization_picks_central_phrase() {
        let llm = SimLlm::gpt4();
        let head = llm.summarize_head();
        let phrases = vec![
            "app crashes on startup".to_string(),
            "crash at startup".to_string(),
            "startup crash loop".to_string(),
        ];
        let label = head.summarize_cluster(&phrases);
        assert!(label.to_lowercase().contains("crash"), "got {label}");
        assert!(label.split_whitespace().count() <= 4);
        assert_eq!(head.summarize_cluster(&[]), "others");
    }

    #[test]
    fn gpt35_hallucinates_more() {
        let g35 = SimLlm::gpt35();
        let g4 = SimLlm::gpt4();
        let opts = ChatOptions::default();
        let texts: Vec<String> = (0..300)
            .map(|i| format!("the app keeps crashing badly with error code {i} on my device"))
            .collect();
        let count_new = |llm: &SimLlm| {
            texts
                .iter()
                .filter(|t| {
                    let r = llm
                        .summarize_head()
                        .suggest_topics(&req(t, &["crash"]), &opts);
                    !r.new_topics.is_empty()
                })
                .count()
        };
        assert!(count_new(&g35) > count_new(&g4));
    }

    #[test]
    fn suggestion_text_mentions_topics() {
        let stats = vec![("crash".to_string(), 42.0), ("ads".to_string(), 7.0)];
        let text = suggestion_text(&stats, "WhatsApp");
        assert!(text.contains("WhatsApp"));
        assert!(text.contains("crash"));
        assert!(text.contains("42"));
        assert!(text.lines().count() >= 3);
        let empty = suggestion_text(&[], "X");
        assert!(empty.contains("No dominant"));
    }
}
