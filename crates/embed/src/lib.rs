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
//! Cost: a feature's direction takes `dims / 2` serial [`mix64`] calls to
//! generate, and most features recur (`the`, `<ap`). Each embedder keeps a
//! bounded table of the directions it generated — 8,192 slots, at most
//! 16 MiB at 512 dims, allocated on the first embed and shared by clones —
//! and hashes n-grams and bigrams straight from the token bytes
//! ([`fnv_extend`]) instead of building a string per feature. Both leave
//! every vector bit-identical.
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

pub use hashing::{fnv_extend, hash64, mix64, FNV_OFFSET};
pub use vector::{cosine_from_parts, dot_slices, norm_slice, sq_dist_slices, Embedding};

use allhands_obs::Recorder;
use allhands_text::light_preprocess;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

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
    /// Feature directions generated so far, shared by clones.
    dirs: Arc<DirTable>,
}

impl SentenceEmbedder {
    /// Create an embedder with the given configuration (unfitted: uniform
    /// token weights until [`fit`](Self::fit) is called).
    pub fn new(config: EmbedderConfig) -> Self {
        assert!(config.dims > 0, "embedding dims must be positive");
        SentenceEmbedder {
            config,
            unigram: HashMap::new(),
            rec: Recorder::disabled(),
            dirs: Arc::new(DirTable::default()),
        }
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

    /// Add the pseudo-random direction of the feature whose FNV-1a hash is
    /// `hash` into `acc` with `weight`, counting the table lookup.
    fn add_feature(&self, acc: &mut [f32], hash: u64, weight: f32, lookups: &mut Lookups) {
        if weight == 0.0 {
            return;
        }
        if self.dirs.add(acc, hash ^ self.config.seed, weight) {
            lookups.hits += 1;
        } else {
            lookups.misses += 1;
        }
    }

    /// Embed a sentence into a unit vector. Empty/degenerate input yields
    /// the zero vector (cosine with anything = 0).
    ///
    /// The features are each token, the token's character n-grams (those of
    /// [`allhands_text::char_ngrams`]) and each adjacent-token bigram
    /// `a+b`. Each is hashed straight from the token's bytes with
    /// [`fnv_extend`], to exactly the [`hash64`] of the string it names, so
    /// no feature string is built.
    pub fn embed(&self, text: &str) -> Embedding {
        self.rec.vincr("embed.computes");
        let tokens = light_preprocess(text);
        let mut acc = vec![0.0f32; self.config.dims];
        if tokens.is_empty() {
            return Embedding::new(acc);
        }
        let mut lookups = Lookups::default();
        let n = self.config.char_ngram;
        // Byte offset of each char of the current token, then its length.
        let mut bounds: Vec<usize> = Vec::new();
        for tok in &tokens {
            let w = self.sif_weight(tok);
            self.add_feature(&mut acc, hash64(tok), w, &mut lookups);
            if n > 0 && !tok.starts_with('<') {
                bounds.clear();
                bounds.extend(tok.char_indices().map(|(i, _)| i));
                bounds.push(tok.len());
                let chars = bounds.len() - 1;
                // The n-grams are the windows of `<tok>`, or `<tok>` itself
                // when it is shorter than `n`.
                let len = chars + 2;
                let grams = if len < n { 1 } else { len - n + 1 };
                let gw = w * self.config.char_weight / grams as f32;
                for start in 0..grams {
                    let end = (start + n).min(len);
                    let mut h = if start == 0 { fnv_extend(FNV_OFFSET, b"<") } else { FNV_OFFSET };
                    // Window positions 1..=chars are the token's chars.
                    let (first, last) = (start.max(1) - 1, end.min(chars + 1) - 1);
                    h = fnv_extend(h, &tok.as_bytes()[bounds[first]..bounds[last]]);
                    if end == len {
                        h = fnv_extend(h, b">");
                    }
                    self.add_feature(&mut acc, h, gw, &mut lookups);
                }
            }
        }
        if self.config.use_bigrams {
            for pair in tokens.windows(2) {
                let h = fnv_extend(fnv_extend(hash64(&pair[0]), b"+"), pair[1].as_bytes());
                self.add_feature(&mut acc, h, 0.5, &mut lookups);
            }
        }
        // Once per embed: the recorder takes a mutex on every count.
        self.rec.vadd("embed.dir.hits", lookups.hits);
        self.rec.vadd("embed.dir.misses", lookups.misses);
        let inv = 1.0 / tokens.len() as f32;
        for v in &mut acc {
            *v *= inv;
        }
        let mut e = Embedding::new(acc);
        e.normalize();
        e
    }
}

/// Direction-table hits and misses of one embed.
#[derive(Default)]
struct Lookups {
    hits: u64,
    misses: u64,
}

/// Slots in an embedder's direction table. A power of two, so the slot
/// pick is a mask. It bounds the table at `DIR_SLOTS × dims × 4` bytes of
/// directions (16 MiB at 512 dims, 8 MiB at 256) plus a 32-byte header per
/// slot.
const DIR_SLOTS: usize = 8192;

/// A bounded, direct-mapped table of feature directions, one per embedder
/// (clones share it through an `Arc`).
///
/// A feature's direction is a pure function of its key, the seeded hash
/// `hash64(feature) ^ seed`: the splitmix chain the key seeds, mapped
/// through [`to_unit`]. A slot whose stored key equals the key therefore
/// holds exactly the right direction, and adding it performs the same f32
/// operations in the same order as generating it inline: a hit changes no
/// output bit. Common features (`the`, `<ap`) are looked up by nearly every
/// text; a miss generates the direction, adds it, and stores it in its slot
/// in place of whatever feature held the slot before.
///
/// Each slot sits behind its own lock, held for one add over `dims` floats
/// at most; a direction is generated outside the lock. Two threads may race
/// to fill one slot with different keys: the slot is replaced in one
/// assignment and every lookup checks the key, so the interleaving changes
/// only the hit rate. For the same reason a poisoned slot lock is absorbed.
/// The slot array is allocated on the first lookup (necessarily a miss), so
/// an embedder that never embeds allocates nothing.
#[derive(Default)]
struct DirTable {
    slots: OnceLock<Box<[Mutex<Option<DirSlot>>]>>,
}

/// One table entry: a feature's key and its `dims` direction values.
struct DirSlot {
    key: u64,
    dir: Box<[f32]>,
}

impl DirTable {
    /// `acc[i] += weight * dir[i]` for the direction of `key`, served from
    /// the table or generated and stored. Returns whether the table hit.
    fn add(&self, acc: &mut [f32], key: u64, weight: f32) -> bool {
        let slots = self
            .slots
            .get_or_init(|| (0..DIR_SLOTS).map(|_| Mutex::new(None)).collect());
        let slot = &slots[mix64(key) as usize & (DIR_SLOTS - 1)];
        if let Some(hit) = lock(slot).as_ref().filter(|s| s.key == key) {
            add_scaled(acc, weight, &hit.dir);
            return true;
        }
        let dir = direction(key, acc.len());
        add_scaled(acc, weight, &dir);
        *lock(slot) = Some(DirSlot { key, dir });
        false
    }

    /// Number of filled slots (0 before the first embed).
    #[cfg(test)]
    fn filled(&self) -> usize {
        self.slots.get().map_or(0, |slots| slots.iter().filter(|s| lock(s).is_some()).count())
    }
}

impl std::fmt::Debug for DirTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirTable").field("allocated", &self.slots.get().is_some()).finish()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The direction of the feature keyed `key`: `dims` pseudo-random values in
/// [-1, 1] from a splitmix chain, two per 64-bit output.
fn direction(key: u64, dims: usize) -> Box<[f32]> {
    let mut dir = vec![0.0f32; dims];
    let mut state = key;
    for pair in dir.chunks_mut(2) {
        state = mix64(state);
        pair[0] = to_unit((state & 0xFFFF_FFFF) as u32);
        if let Some(hi) = pair.get_mut(1) {
            *hi = to_unit((state >> 32) as u32);
        }
    }
    dir.into_boxed_slice()
}

/// `acc[i] += weight * dir[i]`, in index order.
fn add_scaled(acc: &mut [f32], weight: f32, dir: &[f32]) {
    for (a, d) in acc.iter_mut().zip(dir) {
        *a += weight * d;
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
    shards: [Mutex<HashMap<String, Embedding>>; MEMO_SHARDS],
}

/// Lock shards in the memo cache. Power of two so the shard pick is a mask.
const MEMO_SHARDS: usize = 8;

impl<'a> EmbedMemo<'a> {
    /// Wrap an embedder with an empty cache.
    pub fn new(embedder: &'a SentenceEmbedder) -> Self {
        EmbedMemo { embedder, shards: std::array::from_fn(|_| Mutex::new(HashMap::new())) }
    }

    /// The underlying embedder.
    pub fn embedder(&self) -> &'a SentenceEmbedder {
        self.embedder
    }

    fn shard(&self, key: &str) -> MutexGuard<'_, HashMap<String, Embedding>> {
        lock(&self.shards[(hash64(key) as usize) & (MEMO_SHARDS - 1)])
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
        self.shards.iter().map(|s| lock(s).len()).sum()
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

    /// The embed as written before the direction table: a `String` per
    /// n-gram and bigram, and each direction generated inline per feature.
    fn reference_embed(e: &SentenceEmbedder, text: &str) -> Vec<f32> {
        fn add(e: &SentenceEmbedder, acc: &mut [f32], feature: &str, weight: f32) {
            if weight == 0.0 {
                return;
            }
            let mut state = hash64(feature) ^ e.config.seed;
            let mut i = 0;
            while i < acc.len() {
                state = mix64(state);
                acc[i] += weight * to_unit((state & 0xFFFF_FFFF) as u32);
                if i + 1 < acc.len() {
                    acc[i + 1] += weight * to_unit((state >> 32) as u32);
                }
                i += 2;
            }
        }
        let tokens = light_preprocess(text);
        let mut acc = vec![0.0f32; e.config.dims];
        if tokens.is_empty() {
            return acc;
        }
        for tok in &tokens {
            let w = e.sif_weight(tok);
            add(e, &mut acc, tok, w);
            if e.config.char_ngram > 0 && !tok.starts_with('<') {
                let grams = allhands_text::char_ngrams(tok, e.config.char_ngram);
                let gw = w * e.config.char_weight / grams.len().max(1) as f32;
                for g in &grams {
                    add(e, &mut acc, g, gw);
                }
            }
        }
        if e.config.use_bigrams {
            for pair in tokens.windows(2) {
                add(e, &mut acc, &format!("{}+{}", pair[0], pair[1]), 0.5);
            }
        }
        let inv = 1.0 / tokens.len() as f32;
        for v in &mut acc {
            *v *= inv;
        }
        let mut v = Embedding::new(acc);
        v.normalize();
        v.as_slice().to_vec()
    }

    fn assert_matches_reference(e: &SentenceEmbedder, texts: &[String]) {
        for text in texts {
            let got: Vec<u32> = e.embed(text).as_slice().iter().map(|x| x.to_bits()).collect();
            let want: Vec<u32> = reference_embed(e, text).iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "embed diverged from the reference on {text:?}");
        }
    }

    /// Texts covering every feature shape: short and long words, words
    /// shorter than the n-gram, multi-byte and emoji tokens, placeholders,
    /// and fitted SIF weights (some of them zero-free but tiny).
    fn sample_texts() -> Vec<String> {
        let mut texts: Vec<String> = [
            "the app crashes on startup",
            "app crashing at launch, again!!",
            "a I u",
            "caf\u{e9} na\u{ef}ve \u{fc}ber stra\u{df}e",
            "visit https://example.com 5 times \u{1F621}",
            "\u{8fd9}\u{4e2a}\u{5e94}\u{7528} crashes",
            "",
            "!!!",
            "please add a dark mode theme please",
        ]
        .iter()
        .map(|t| t.to_string())
        .collect();
        texts.extend((0..40).map(|i| format!("report {i} the filter vanished after update {}", i % 7)));
        texts
    }

    #[test]
    fn embed_matches_the_reference_cold_and_warm() {
        for config in [
            EmbedderConfig::default(),
            EmbedderConfig { dims: 7, char_ngram: 2, ..Default::default() },
            EmbedderConfig { char_ngram: 5, use_bigrams: false, ..Default::default() },
            EmbedderConfig { char_ngram: 1, char_weight: 0.0, ..Default::default() },
            EmbedderConfig { char_ngram: 0, ..Default::default() },
        ] {
            let mut e = SentenceEmbedder::new(config);
            e.fit(&sample_texts());
            assert_matches_reference(&e, &sample_texts()); // cold
            assert_matches_reference(&e, &sample_texts()); // warm
        }
    }

    #[test]
    fn table_is_bounded_and_evicted_slots_stay_exact() {
        let e = SentenceEmbedder::new(EmbedderConfig { dims: 16, ..Default::default() });
        // Distinct pseudo-random words: far more features than slots.
        let word = |i: u64| -> String {
            let h = mix64(i);
            (0..7).map(|k| char::from(b'a' + ((h >> (5 * k)) % 26) as u8)).collect()
        };
        let texts: Vec<String> = (0..400u64)
            .map(|t| (0..12).map(|w| word(t * 12 + w)).collect::<Vec<_>>().join(" "))
            .collect();
        let rec = Recorder::new();
        let mut counted = e.clone();
        counted.set_recorder(rec.clone());
        for chunk in texts.chunks(50) {
            assert_matches_reference(&counted, chunk);
            assert!(e.dirs.filled() <= DIR_SLOTS, "{} slots filled", e.dirs.filled());
        }
        let misses = rec.report().volatile_counters["embed.dir.misses"];
        assert!(misses > 3 * DIR_SLOTS as u64, "{misses} misses cannot overflow the table");
        assert!(e.dirs.filled() > DIR_SLOTS / 2);
        // The first texts' features were evicted long ago.
        assert_matches_reference(&e, &texts[..20]);
    }

    #[test]
    fn racing_threads_and_clones_match_the_reference() {
        let e = SentenceEmbedder::new(EmbedderConfig::default());
        let texts = sample_texts();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for reverse in [false, true] {
                let (e, barrier, texts) = (&e, &barrier, &texts);
                s.spawn(move || {
                    let mut order = texts.clone();
                    if reverse {
                        order.reverse();
                    }
                    barrier.wait();
                    assert_matches_reference(e, &order);
                });
            }
        });
        // A clone shares the warm table: only features whose slot another
        // feature of the sample took (direct mapping) miss.
        let rec = Recorder::new();
        let mut clone = e.clone();
        clone.set_recorder(rec.clone());
        assert!(Arc::ptr_eq(&e.dirs, &clone.dirs));
        assert_matches_reference(&clone, &texts);
        let counters = rec.report().volatile_counters;
        let (hits, misses) = (counters["embed.dir.hits"], counters["embed.dir.misses"]);
        assert!(hits > 20 * misses, "{hits} hits, {misses} misses on a warm table");
    }

    #[test]
    fn an_embedder_that_never_embeds_allocates_no_slots() {
        let e = SentenceEmbedder::new(EmbedderConfig::default());
        let clone = e.clone();
        assert_eq!(e.embed("").norm(), 0.0);
        assert_eq!(clone.embed("!!!").norm(), 0.0);
        assert!(e.dirs.slots.get().is_none());
        assert_eq!(e.dirs.filled(), 0);
        e.embed("one feature");
        assert!(e.dirs.slots.get().is_some());
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
