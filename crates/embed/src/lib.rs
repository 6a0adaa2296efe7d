//! Deterministic sentence-embedding substrate for AllHands.
//!
//! Stands in for the sentence-transformer the paper uses for demonstration
//! retrieval, topic clustering, and coherence scoring. The embedder maps a
//! sentence to a dense unit vector by pooling deterministic pseudo-random
//! token directions (random indexing) weighted by smooth inverse frequency
//! (SIF, Arora et al. 2017), optionally augmented with word bigrams and
//! character n-grams for typo and cross-lingual robustness.
//!
//! Properties the rest of the workspace relies on:
//! - **Deterministic**: same text, same config → bit-identical vector.
//! - **Similarity-preserving**: texts sharing (sub)tokens land close in
//!   cosine space; paraphrases of the same complaint cluster together.
//! - **Tiered**: [`EmbedderConfig`] controls dimensionality and feature
//!   richness, which is how the simulated GPT-4 sees a better space than
//!   the simulated GPT-3.5.
//!
//! # Example
//!
//! ```
//! use allhands_embed::{SentenceEmbedder, EmbedderConfig};
//!
//! let embedder = SentenceEmbedder::new(EmbedderConfig::default());
//! let a = embedder.embed("the app crashes on startup");
//! let b = embedder.embed("app crashing at launch");
//! let c = embedder.embed("please add a dark mode theme");
//! assert!(a.cosine(&b) > a.cosine(&c));
//! ```

pub mod hashing;
pub mod vector;

pub use hashing::{hash64, mix64};
pub use vector::{cosine_from_parts, dot_slices, norm_slice, sq_dist_slices, Embedding};

use allhands_obs::Recorder;
use allhands_text::{char_ngrams, light_preprocess};
use std::collections::HashMap;

/// Configuration for [`SentenceEmbedder`].
#[derive(Debug, Clone)]
pub struct EmbedderConfig {
    /// Output dimensionality.
    pub dims: usize,
    /// Include adjacent-word bigram features.
    pub use_bigrams: bool,
    /// Include character n-gram features of this size (0 disables). Gives
    /// typo robustness and cross-lingual subword overlap.
    pub char_ngram: usize,
    /// Weight of character-n-gram features relative to word features.
    pub char_weight: f32,
    /// SIF smoothing constant `a` in `a / (a + p(w))`.
    pub sif_a: f32,
    /// Seed namespace: embedders with different seeds produce unrelated
    /// spaces (used to decorrelate model tiers).
    pub seed: u64,
}

impl Default for EmbedderConfig {
    fn default() -> Self {
        EmbedderConfig {
            dims: 256,
            use_bigrams: true,
            char_ngram: 3,
            char_weight: 0.3,
            sif_a: 1e-3,
            seed: 0x5EED_A114_A4D5,
        }
    }
}

/// Deterministic sentence embedder. See crate docs.
#[derive(Debug, Clone)]
pub struct SentenceEmbedder {
    config: EmbedderConfig,
    /// Corpus unigram frequencies for SIF weighting (token → probability);
    /// empty until [`SentenceEmbedder::fit`] is called, in which case all
    /// tokens get uniform weight.
    unigram: HashMap<String, f64>,
    /// Observability sink (disabled by default). Embed computes are counted
    /// as **volatile** metrics: cache layers above ([`EmbedMemo`], the gloss
    /// cache) race on misses, so the raw compute count is thread-dependent.
    rec: Recorder,
}

impl SentenceEmbedder {
    /// Create an embedder with the given configuration (unfitted: uniform
    /// token weights until [`fit`](Self::fit) is called).
    pub fn new(config: EmbedderConfig) -> Self {
        assert!(config.dims > 0, "embedding dims must be positive");
        SentenceEmbedder { config, unigram: HashMap::new(), rec: Recorder::disabled() }
    }

    /// Route embed metrics into `rec` (see the `rec` field for why they are
    /// volatile).
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.rec = rec;
    }

    /// The recorder metrics flow into (possibly disabled).
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// The configured output dimensionality.
    pub fn dims(&self) -> usize {
        self.config.dims
    }

    /// The configuration this embedder was built with.
    pub fn config(&self) -> &EmbedderConfig {
        &self.config
    }

    /// Estimate corpus unigram probabilities for SIF weighting. Calling
    /// `fit` sharpens the space (frequent filler words get down-weighted)
    /// but is optional.
    pub fn fit<S: AsRef<str>>(&mut self, corpus: &[S]) {
        let mut counts: HashMap<String, u64> = HashMap::new();
        let mut total = 0u64;
        for doc in corpus {
            for tok in light_preprocess(doc.as_ref()) {
                *counts.entry(tok).or_insert(0) += 1;
                total += 1;
            }
        }
        if total == 0 {
            return;
        }
        self.unigram = counts
            .into_iter()
            .map(|(t, c)| (t, c as f64 / total as f64))
            .collect();
    }

    /// SIF weight for a token: `a / (a + p(w))`, 1.0 when unfitted.
    fn sif_weight(&self, token: &str) -> f32 {
        match self.unigram.get(token) {
            Some(&p) => {
                let a = self.config.sif_a as f64;
                (a / (a + p)) as f32
            }
            None => 1.0,
        }
    }

    /// Add a feature's pseudo-random direction into `acc` with `weight`.
    fn add_feature(&self, acc: &mut [f32], feature: &str, weight: f32) {
        if weight == 0.0 {
            return;
        }
        let base = hash64(feature) ^ self.config.seed;
        // Generate `dims` pseudo-random values in [-1, 1] from a splitmix
        // chain; two values per 64-bit output.
        let mut state = base;
        let mut i = 0;
        while i < acc.len() {
            state = mix64(state);
            let lo = (state & 0xFFFF_FFFF) as u32;
            let hi = (state >> 32) as u32;
            acc[i] += weight * to_unit(lo);
            if i + 1 < acc.len() {
                acc[i + 1] += weight * to_unit(hi);
            }
            i += 2;
        }
    }

    /// Embed a sentence into a unit vector. Empty/degenerate input yields
    /// the zero vector (cosine with anything = 0).
    pub fn embed(&self, text: &str) -> Embedding {
        self.rec.vincr("embed.computes");
        let tokens = light_preprocess(text);
        let mut acc = vec![0.0f32; self.config.dims];
        if tokens.is_empty() {
            return Embedding::new(acc);
        }
        for tok in &tokens {
            let w = self.sif_weight(tok);
            self.add_feature(&mut acc, tok, w);
            if self.config.char_ngram > 0 && !tok.starts_with('<') {
                let grams = char_ngrams(tok, self.config.char_ngram);
                let gw = w * self.config.char_weight / grams.len().max(1) as f32;
                for g in &grams {
                    self.add_feature(&mut acc, g, gw);
                }
            }
        }
        if self.config.use_bigrams {
            for pair in tokens.windows(2) {
                let bigram = format!("{}+{}", pair[0], pair[1]);
                self.add_feature(&mut acc, &bigram, 0.5);
            }
        }
        let inv = 1.0 / tokens.len() as f32;
        for v in &mut acc {
            *v *= inv;
        }
        let mut e = Embedding::new(acc);
        e.normalize();
        e
    }
}

/// Map a u32 to [-1, 1).
fn to_unit(x: u32) -> f32 {
    (x as f32 / u32::MAX as f32) * 2.0 - 1.0
}

/// A memoizing view over a [`SentenceEmbedder`]: identical input text is
/// embedded once and served from a cache thereafter.
///
/// The embedder is pure (same text → bit-identical vector), so memoization
/// is observationally invisible — outputs cannot change, only redundant
/// work disappears. Hot loops that repeatedly embed the same strings hold
/// one `EmbedMemo` for the loop's lifetime: the summarize head keeps one
/// for a whole topic-modeling run, so a document embedded in round 1 is
/// served from the memo in round 2 and again wherever round 2 retrieves it
/// as a demonstration. Thread-safe: the cache is split into [`MEMO_SHARDS`]
/// independently-locked shards keyed by the text's hash, so a memo shared
/// by a parallel scoring loop serves hits from different shards without
/// contending on one global mutex (the single-mutex version was a measured
/// scaling bottleneck for batch classification); concurrent misses on the
/// same key simply compute the same bits twice and agree.
#[derive(Debug)]
pub struct EmbedMemo<'a> {
    embedder: &'a SentenceEmbedder,
    shards: [std::sync::Mutex<HashMap<String, Embedding>>; MEMO_SHARDS],
}

/// Lock shards in the memo cache. Power of two so the shard pick is a mask.
const MEMO_SHARDS: usize = 8;

impl<'a> EmbedMemo<'a> {
    /// Wrap an embedder with an empty cache.
    pub fn new(embedder: &'a SentenceEmbedder) -> Self {
        EmbedMemo { embedder, shards: std::array::from_fn(|_| std::sync::Mutex::new(HashMap::new())) }
    }

    /// The underlying embedder.
    pub fn embedder(&self) -> &'a SentenceEmbedder {
        self.embedder
    }

    fn shard(&self, key: &str) -> std::sync::MutexGuard<'_, HashMap<String, Embedding>> {
        let idx = (hash64(key) as usize) & (MEMO_SHARDS - 1);
        match self.shards[idx].lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Embed `text`, reusing the cached vector when available.
    pub fn embed(&self, text: &str) -> Embedding {
        if let Some(hit) = self.shard(text).get(text) {
            // Hit/miss splits are volatile: two threads can race the same
            // key and both miss, so the split depends on the interleaving.
            self.embedder.rec.vincr("embed.memo.hits");
            return hit.clone();
        }
        self.embedder.rec.vincr("embed.memo.misses");
        // Compute outside the lock: long embeds must not serialize other
        // threads' cache hits. A racing miss computes identical bits.
        let fresh = self.embedder.embed(text);
        self.shard(text).entry(text.to_string()).or_insert(fresh).clone()
    }

    /// Cache an embedding under an arbitrary `key`, computing it with
    /// `build` on the first miss. For callers that embed a *derived* form
    /// of the key (e.g. a stemmed phrase) and want to skip recomputing the
    /// derivation as well. `build` must be deterministic in `key`.
    pub fn embed_keyed(&self, key: &str, build: impl FnOnce(&SentenceEmbedder) -> Embedding) -> Embedding {
        if let Some(hit) = self.shard(key).get(key) {
            self.embedder.rec.vincr("embed.memo.hits");
            return hit.clone();
        }
        self.embedder.rec.vincr("embed.memo.misses");
        let fresh = build(self.embedder);
        self.shard(key).entry(key.to_string()).or_insert(fresh).clone()
    }

    /// Number of distinct texts cached so far.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| match s.lock() {
            Ok(g) => g.len(),
            Err(p) => p.into_inner().len(),
        }).sum()
    }

    /// True when nothing has been cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let e = SentenceEmbedder::new(EmbedderConfig::default());
        assert_eq!(e.embed("hello world").as_slice(), e.embed("hello world").as_slice());
    }

    #[test]
    fn unit_norm() {
        let e = SentenceEmbedder::new(EmbedderConfig::default());
        let v = e.embed("some text here");
        assert!((v.norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_is_zero() {
        let e = SentenceEmbedder::new(EmbedderConfig::default());
        assert_eq!(e.embed("").norm(), 0.0);
        assert_eq!(e.embed("!!!").norm(), 0.0);
    }

    #[test]
    fn similar_texts_closer() {
        let e = SentenceEmbedder::new(EmbedderConfig::default());
        let a = e.embed("the app crashes when I open it");
        let b = e.embed("app crashed after opening");
        let c = e.embed("beautiful sunset photography filter");
        assert!(a.cosine(&b) > a.cosine(&c) + 0.1);
    }

    #[test]
    fn typo_robustness_via_char_ngrams() {
        let with = SentenceEmbedder::new(EmbedderConfig { char_ngram: 3, ..Default::default() });
        let without = SentenceEmbedder::new(EmbedderConfig { char_ngram: 0, ..Default::default() });
        let sim_with = with.embed("crashing").cosine(&with.embed("crashhing"));
        let sim_without = without.embed("crashing").cosine(&without.embed("crashhing"));
        assert!(sim_with > sim_without);
    }

    #[test]
    fn fit_downweights_frequent_tokens() {
        let mut e = SentenceEmbedder::new(EmbedderConfig::default());
        let corpus: Vec<String> = (0..50)
            .map(|i| format!("filler filler filler topic{}", i % 5))
            .collect();
        e.fit(&corpus);
        assert!(e.sif_weight("filler") < e.sif_weight("topic0"));
        assert_eq!(e.sif_weight("unseen-token"), 1.0);
    }

    #[test]
    fn different_seeds_different_spaces() {
        let a = SentenceEmbedder::new(EmbedderConfig { seed: 1, ..Default::default() });
        let b = SentenceEmbedder::new(EmbedderConfig { seed: 2, ..Default::default() });
        let va = a.embed("hello world");
        let vb = b.embed("hello world");
        assert!(va.cosine(&vb).abs() < 0.5);
    }

    #[test]
    #[should_panic(expected = "dims must be positive")]
    fn zero_dims_panics() {
        SentenceEmbedder::new(EmbedderConfig { dims: 0, ..Default::default() });
    }

    #[test]
    fn memo_matches_direct_and_caches() {
        let e = SentenceEmbedder::new(EmbedderConfig::default());
        let memo = EmbedMemo::new(&e);
        assert!(memo.is_empty());
        let a = memo.embed("the app crashes");
        assert_eq!(a.as_slice(), e.embed("the app crashes").as_slice());
        let b = memo.embed("the app crashes");
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(memo.len(), 1);
        memo.embed("different text");
        assert_eq!(memo.len(), 2);
    }
}
