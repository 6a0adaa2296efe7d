//! Stage 1 — ICL feedback classification (paper Sec. 3.2).
//!
//! "AllHands initially employs the sentence transformer to vectorize all
//! labeled data, storing them in a vector database. During the
//! classification process, the input feedback is embedded using the same
//! embedding model [and] the top-K similar samples are retrieved using the
//! cosine similarity metric" — then assembled into an ICL prompt.

use allhands_classify::{LabeledExample, LexicalPrior};
use allhands_embed::Embedding;
use allhands_llm::{ChatOptions, ClassifyHead, Demonstration, ScoredDemonstration, SimLlm};
use allhands_resilience::{Head, ResilienceConfig, ResilienceCtx};
use allhands_vectordb::{IvfIndex, Record};
use std::sync::Arc;

/// Classification-stage configuration.
#[derive(Debug, Clone)]
pub struct IclConfig {
    /// Demonstrations retrieved per query (0 = zero-shot).
    pub shots: usize,
    /// Train the demonstration index into IVF partitions (pools above 500
    /// demonstrations); otherwise retrieval is an exact scan (the
    /// retrieval-quality/latency ablation).
    pub use_ivf: bool,
    /// IVF partitions (when `use_ivf`).
    pub ivf_partitions: usize,
    /// IVF probes per query.
    pub ivf_nprobe: usize,
    /// Generation options.
    pub chat: ChatOptions,
}

impl Default for IclConfig {
    fn default() -> Self {
        IclConfig {
            shots: 10,
            use_ivf: true,
            ivf_partitions: 32,
            ivf_nprobe: 6,
            chat: ChatOptions::default(),
        }
    }
}

/// Documents per `classify > batch[i]` span when a recorder is enabled.
/// Fixed (never derived from the thread count) so the span tree shape is
/// identical at any `ALLHANDS_THREADS`.
const CLASSIFY_SPAN_BATCH: usize = 64;

/// The embedded demonstration pool: vector index over the labeled sample,
/// the sample itself, the fixed label-candidate order, and the
/// degraded-mode lexical prior. Borrow-free (unlike [`IclClassifier`], it
/// does not hold the LLM), so the facade keeps it alive across incremental
/// ingestion batches and re-uses the fitted index instead of re-embedding
/// the pool per batch.
pub struct DemoIndex {
    index: IvfIndex,
    /// Demonstration pool aligned with record ids.
    pool: Vec<LabeledExample>,
    labels: Vec<String>,
    /// Degraded-mode classifier, used when the LLM head is unavailable.
    fallback: LexicalPrior,
}

impl DemoIndex {
    /// Embed and index the labeled pool. `labels` fixes the candidate set
    /// (prompt order matters: ties break toward earlier labels).
    pub fn fit(llm: &SimLlm, pool: &[LabeledExample], labels: &[String], config: &IclConfig) -> Self {
        assert!(!labels.is_empty(), "need at least one label");
        let dims = llm.embedder().dims();
        let mut index = IvfIndex::new(dims, config.ivf_nprobe);
        for (i, ex) in pool.iter().enumerate() {
            index.insert(Record::new(i as u64, llm.embedder().embed(&ex.text)));
        }
        if config.use_ivf && pool.len() > 500 {
            index.train(config.ivf_partitions.min(pool.len() / 8).max(2));
        }
        DemoIndex {
            index,
            pool: pool.to_vec(),
            labels: labels.to_vec(),
            fallback: LexicalPrior::fit(pool, labels),
        }
    }

    /// Attach a metrics recorder to the underlying vector index so
    /// retrieval scans are counted.
    pub fn set_recorder(&mut self, rec: allhands_obs::Recorder) {
        self.index.set_recorder(rec);
    }

    /// Number of indexed demonstrations.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    /// The label candidate set, in prompt order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }
}

/// The fitted ICL classifier: an embedded demonstration pool plus the LLM.
pub struct IclClassifier<'a> {
    llm: &'a SimLlm,
    /// The classify head, created once at fit time so its per-label gloss
    /// cache (gloss text, stems, embedding) amortizes across every text in
    /// a batch instead of being rebuilt per call.
    head: ClassifyHead<'a>,
    /// The embedded demonstration pool, shareable across classifiers (the
    /// ingest path fits it once and re-wraps it per batch).
    demos: Arc<DemoIndex>,
    config: IclConfig,
    /// Resilience context every classify-head call runs under (breaker,
    /// retries, fault injection). The default one injects nothing, and the
    /// classify operation itself cannot fail, so each call is one attempt.
    resilience: Arc<ResilienceCtx>,
}

impl<'a> IclClassifier<'a> {
    /// Embed and index the labeled pool. `labels` fixes the candidate set
    /// (prompt order matters: ties break toward earlier labels).
    pub fn fit(
        llm: &'a SimLlm,
        pool: &[LabeledExample],
        labels: &[String],
        config: IclConfig,
    ) -> Self {
        let demos = Arc::new(DemoIndex::fit(llm, pool, labels, &config));
        Self::from_demos(llm, demos, config)
    }

    /// Wrap an already-fitted demonstration pool — the incremental
    /// ingestion path, where the pool is embedded once and each batch gets
    /// a fresh classifier around the same [`DemoIndex`].
    pub fn from_demos(llm: &'a SimLlm, demos: Arc<DemoIndex>, config: IclConfig) -> Self {
        let head = llm.classify_head();
        // The label set is fixed here, so build every gloss entry up front:
        // the parallel batch loop then only ever takes shared read locks on
        // the gloss cache instead of racing to build the same entries.
        head.prewarm(&demos.labels);
        IclClassifier {
            llm,
            head,
            demos,
            config,
            resilience: Arc::new(ResilienceCtx::new(ResilienceConfig::default())),
        }
    }

    /// Replace the default inert resilience context: classification calls
    /// run under the classify head's retry policy and circuit breaker,
    /// falling back to the lexical prior when the head is unavailable. The
    /// context's recorder is propagated to the demonstration index so
    /// retrieval scans are counted (when the pool is shared, the recorder
    /// is attached at [`DemoIndex::fit`] time instead).
    pub fn with_resilience(mut self, ctx: Arc<ResilienceCtx>) -> Self {
        if let Some(demos) = Arc::get_mut(&mut self.demos) {
            demos.set_recorder(ctx.recorder().clone());
        }
        self.resilience = ctx;
        self
    }

    /// Retrieve the top-K demonstration examples for a query text.
    pub fn retrieve(&self, text: &str) -> Vec<Demonstration> {
        self.retrieve_scored(&self.llm.embedder().embed(text))
            .into_iter()
            .map(|(ex, _)| Demonstration { input: ex.text.clone(), output: ex.label.clone() })
            .collect()
    }

    /// [`retrieve`](Self::retrieve) for an already-embedded query
    /// (`embed(text)`), with each demonstration's retrieval score. The
    /// index stores exactly `embed(demo.text)` (computed at fit time) and
    /// scores a row with `Embedding::cosine`'s formula, so each score is
    /// bit for bit `query.cosine(&embed(demo.text))` and the classify head
    /// votes from it without the demonstration's vector.
    pub fn retrieve_scored(&self, query: &Embedding) -> Vec<(&LabeledExample, f32)> {
        if self.config.shots == 0 || self.demos.pool.is_empty() {
            return Vec::new();
        }
        self.demos.index
            .search(query, self.config.shots)
            .into_iter()
            .map(|hit| (&self.demos.pool[hit.id as usize], hit.score))
            .collect()
    }

    /// Classify one feedback text. The LLM call runs under retry/breaker
    /// control; if it still fails (breaker open or retries exhausted) the
    /// lexical-prior fallback answers instead, recording a degradation note
    /// — classification degrades, never fails.
    pub fn classify(&self, text: &str) -> String {
        let ctx = &self.resilience;
        match ctx.call(Head::Classify, |_| Ok(self.classify_direct(text))) {
            Ok(label) => label,
            Err(err) => {
                ctx.note_degradation_once(
                    "classification",
                    &format!(
                        "LLM classify head unavailable ({}); labels from lexical-prior fallback",
                        err.label()
                    ),
                );
                self.demos.fallback.classify(text)
            }
        }
    }

    /// The LLM path for one text. The text is embedded once: the vector is
    /// both the retrieval query and the head's sentence embedding.
    fn classify_direct(&self, text: &str) -> String {
        let text_emb = self.llm.embedder().embed(text);
        let demos: Vec<ScoredDemonstration> = self
            .retrieve_scored(&text_emb)
            .into_iter()
            .map(|(ex, score)| ScoredDemonstration { output: &ex.label, score })
            .collect();
        self.head
            .classify_embedded(text, &text_emb, &self.demos.labels, &demos, &self.config.chat)
    }

    /// Classify a batch of texts, identical output to mapping
    /// [`classify`](Self::classify) over `texts` in order — but the pure
    /// per-text work runs data-parallel.
    ///
    /// Determinism contract: fault injection is a pure function of the
    /// *order* of calls on the shared resilience context, so the Ok/Err
    /// decision for every text is made sequentially first (the wrapped
    /// operation in `classify` is infallible, so an `Ok(())` probe drives
    /// the context through the exact same retry/breaker/fault trajectory),
    /// and only the pure classification work — LLM path or lexical
    /// fallback per the recorded decision — is distributed across threads.
    /// Output is byte-identical to the serial path at any thread count,
    /// with or without fault injection.
    ///
    /// Poison isolation: per-item work runs under `par_map_isolated` — a
    /// document that panics mid-work (e.g. a configured poison pill) is
    /// quarantined on the context with its panic payload and labeled by the
    /// lexical fallback, while every other document is classified exactly
    /// as it would have been.
    pub fn classify_batch(&self, texts: &[String]) -> Vec<String> {
        let ctx = &self.resilience;
        let rec = ctx.recorder();
        let _stage = rec.span("classify");
        rec.add("classify.docs", texts.len() as u64);
        // Span batches are a fixed size — independent of thread count — so
        // the `classify > batch[i]` tree shape is deterministic. With the
        // recorder disabled everything runs as one batch: zero extra
        // dispatches on the hot path, and per-item outputs are identical
        // either way (each item's work is independent).
        let span_batch = if rec.is_enabled() { CLASSIFY_SPAN_BATCH } else { texts.len().max(1) };
        // The resilience probe prefix is inherently sequential (fault
        // injection is a function of call order on the shared context), so
        // it caps parallel speedup; its wall time goes to the volatile
        // annex so scaling regressions can be triaged from the run report.
        let probe_start = std::time::Instant::now();
        let llm_ok: Vec<bool> = texts
            .iter()
            .map(|_| match ctx.call(Head::Classify, |_| Ok(())) {
                Ok(()) => true,
                Err(err) => {
                    ctx.note_degradation_once(
                        "classification",
                        &format!(
                            "LLM classify head unavailable ({}); labels from lexical-prior fallback",
                            err.label()
                        ),
                    );
                    false
                }
            })
            .collect();
        rec.vobserve("par.probe_prefix_ms.classify", probe_start.elapsed().as_millis() as u64);
        let mut isolated: Vec<Result<String, String>> = Vec::with_capacity(texts.len());
        for (b, chunk) in texts.chunks(span_batch).enumerate() {
            let _batch = rec.span(&format!("batch[{b}]"));
            let offset = b * span_batch;
            isolated.extend(allhands_par::par_map_isolated_recorded(rec, "classify", chunk, |i, t| {
                ctx.check_poison(t);
                if llm_ok[offset + i] {
                    self.classify_direct(t)
                } else {
                    self.demos.fallback.classify(t)
                }
            }));
        }
        isolated
            .into_iter()
            .enumerate()
            .map(|(i, r)| match r {
                Ok(label) => label,
                Err(payload) => {
                    // Dead-letter the document (index-ordered, so the
                    // quarantine log is deterministic) and degrade it to
                    // the lexical fallback label.
                    ctx.record_quarantine("classification", &i.to_string(), &payload);
                    ctx.note_degradation_once(
                        "classification",
                        "document(s) quarantined after per-item panic; labels from lexical-prior fallback",
                    );
                    self.demos.fallback.classify(&texts[i])
                }
            })
            .collect()
    }

    /// Accuracy over a labeled test set.
    pub fn evaluate(&self, test: &[LabeledExample]) -> f64 {
        if test.is_empty() {
            return 0.0;
        }
        let correct = test
            .iter()
            .filter(|ex| self.classify(&ex.text) == ex.label)
            .count();
        correct as f64 / test.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> (Vec<LabeledExample>, Vec<String>) {
        let mut pool = Vec::new();
        for i in 0..30 {
            pool.push(LabeledExample {
                text: format!("the app crashes with bug error {i}"),
                label: "informative".into(),
            });
            pool.push(LabeledExample {
                text: format!("lol cool whatever {i}"),
                label: "non-informative".into(),
            });
        }
        (pool, vec!["informative".into(), "non-informative".into()])
    }

    #[test]
    fn few_shot_classifies_correctly() {
        let llm = SimLlm::gpt4();
        let (pool, labels) = pool();
        let clf = IclClassifier::fit(&llm, &pool, &labels, IclConfig::default());
        assert_eq!(clf.classify("another crash bug error today"), "informative");
        assert_eq!(clf.classify("lol ok cool"), "non-informative");
    }

    #[test]
    fn retrieval_returns_similar_shots() {
        let llm = SimLlm::gpt4();
        let (pool, labels) = pool();
        let clf = IclClassifier::fit(
            &llm,
            &pool,
            &labels,
            IclConfig { shots: 5, ..Default::default() },
        );
        let demos = clf.retrieve("crash bug error in the app");
        assert_eq!(demos.len(), 5);
        // The nearest demonstrations should overwhelmingly be crash-themed.
        let informative = demos.iter().filter(|d| d.output == "informative").count();
        assert!(informative >= 4, "{informative}/5 informative");
    }

    #[test]
    fn retrieval_scores_equal_fresh_cosines_bit_for_bit() {
        // An untrained pool is one exact scan; a pool above 500 demos is
        // IVF-trained. Either way a hit's score is the cosine the classify
        // head would compute from two fresh embeds.
        let llm = SimLlm::gpt4();
        let (small, labels) = pool();
        // Distinct words, so k-means has real clusters to find.
        let word = |i: u64| -> String {
            let h = allhands_embed::mix64(i);
            (0..6).map(|k| char::from(b'a' + ((h >> (5 * k)) % 26) as u8)).collect()
        };
        let large: Vec<LabeledExample> = (0..520u64)
            .map(|i| LabeledExample {
                text: format!("{} {} {} crash {}", word(i), word(i % 40), word(1000 + i % 13), i % 7),
                label: if i % 3 == 0 { "informative" } else { "non-informative" }.into(),
            })
            .collect();
        for (demos, trained) in [(&small, false), (&large, true)] {
            let clf = IclClassifier::fit(&llm, demos, &labels, IclConfig::default());
            assert_eq!(clf.demos.index.is_trained(), trained);
            let mut checked = 0;
            for text in ["crash bug error in the app", "lol cool whatever", &large[5].text, &large[77].text, ""] {
                let query = llm.embedder().embed(text);
                let hits = clf.retrieve_scored(&query);
                assert!(hits.len() <= 10);
                checked += hits.len();
                for (ex, score) in hits {
                    let fresh = query.cosine(&llm.embedder().embed(&ex.text));
                    assert_eq!(score.to_bits(), fresh.to_bits(), "{text:?} vs {:?}", ex.text);
                }
            }
            assert!(checked >= 30, "only {checked} hits checked");
        }
    }

    #[test]
    fn zero_shot_has_no_demos() {
        let llm = SimLlm::gpt35();
        let (pool, labels) = pool();
        let clf = IclClassifier::fit(
            &llm,
            &pool,
            &labels,
            IclConfig { shots: 0, ..Default::default() },
        );
        assert!(clf.retrieve("anything").is_empty());
        // Still classifies via the zero-shot prior.
        let out = clf.classify("crash bug error");
        assert!(labels.contains(&out));
    }

    #[test]
    fn chaos_degrades_to_fallback_without_failing() {
        use allhands_resilience::{ResilienceConfig, ResilienceCtx};
        use std::sync::Arc;
        let llm = SimLlm::gpt4();
        let (pool, labels) = pool();
        let run = || {
            let ctx = Arc::new(ResilienceCtx::new(ResilienceConfig::chaos(5, 0.9)));
            let clf = IclClassifier::fit(&llm, &pool, &labels, IclConfig::default())
                .with_resilience(ctx.clone());
            let outs: Vec<String> = (0..30)
                .map(|i| clf.classify(&format!("crash bug error report {i}")))
                .collect();
            (outs, ctx)
        };
        let (outs, ctx) = run();
        // Never fails: every output is a valid label.
        assert!(outs.iter().all(|o| labels.contains(o)), "{outs:?}");
        assert!(ctx.injected() > 0, "0.9 fault rate must inject");
        // A 0.9 rate exhausts retries somewhere in 30 docs; that fallback
        // must be visible as a degradation note.
        assert!(
            ctx.degradations().iter().any(|d| d.stage == "classification"),
            "{:?}",
            ctx.degradations()
        );
        // Same seed ⇒ identical labels, including the degraded ones.
        let (outs2, _) = run();
        assert_eq!(outs, outs2);
    }

    /// `classify_batch` must equal mapping `classify` in order — clean
    /// path, at several thread counts.
    #[test]
    fn batch_matches_serial_classify() {
        let llm = SimLlm::gpt4();
        let (pool, labels) = pool();
        let clf = IclClassifier::fit(&llm, &pool, &labels, IclConfig::default());
        let texts: Vec<String> = (0..100)
            .map(|i| {
                if i % 2 == 0 {
                    format!("crash bug error in build {i}")
                } else {
                    format!("haha nice {i}")
                }
            })
            .collect();
        // Below the fast-path floor the batch never reaches the pool.
        assert!(texts.len() >= 2 * allhands_par::SEQ_FASTPATH_MIN);
        let serial: Vec<String> = texts.iter().map(|t| clf.classify(t)).collect();
        for threads in [1usize, 2, 8] {
            let batch = allhands_par::with_threads(threads, || clf.classify_batch(&texts));
            assert_eq!(serial, batch, "threads={threads}");
        }
    }

    /// Under fault injection the batch path must reproduce the serial
    /// path's exact degradation pattern: fault decisions are order-driven,
    /// so the batch makes them sequentially before fanning out.
    #[test]
    fn batch_matches_serial_under_chaos() {
        use allhands_resilience::{ResilienceConfig, ResilienceCtx};
        let llm = SimLlm::gpt4();
        let (pool, labels) = pool();
        // Mixed labels, so a result landing at the wrong index shows.
        let texts: Vec<String> = (0..100)
            .map(|i| {
                if i % 2 == 0 {
                    format!("crash bug error report {i}")
                } else {
                    format!("haha nice {i}")
                }
            })
            .collect();
        assert!(texts.len() >= 2 * allhands_par::SEQ_FASTPATH_MIN);
        let run_serial = || {
            let ctx = Arc::new(ResilienceCtx::new(ResilienceConfig::chaos(5, 0.9)));
            let clf = IclClassifier::fit(&llm, &pool, &labels, IclConfig::default())
                .with_resilience(ctx.clone());
            let outs: Vec<String> = texts.iter().map(|t| clf.classify(t)).collect();
            (outs, ctx.injected(), ctx.degradations().len())
        };
        let run_batch = |threads: usize| {
            let ctx = Arc::new(ResilienceCtx::new(ResilienceConfig::chaos(5, 0.9)));
            let clf = IclClassifier::fit(&llm, &pool, &labels, IclConfig::default())
                .with_resilience(ctx.clone());
            let outs = allhands_par::with_threads(threads, || clf.classify_batch(&texts));
            (outs, ctx.injected(), ctx.degradations().len())
        };
        let serial = run_serial();
        assert!(serial.1 > 0, "chaos must inject");
        for threads in [1usize, 2, 8] {
            assert_eq!(serial, run_batch(threads), "threads={threads}");
        }
    }

    #[test]
    fn evaluate_reports_accuracy() {
        let llm = SimLlm::gpt4();
        let (pool, labels) = pool();
        let clf = IclClassifier::fit(&llm, &pool, &labels, IclConfig::default());
        let acc = clf.evaluate(&pool);
        assert!(acc > 0.9, "accuracy {acc}");
        assert_eq!(clf.evaluate(&[]), 0.0);
    }
}
