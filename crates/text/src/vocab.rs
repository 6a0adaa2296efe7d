//! Vocabulary: token ↔ id mapping with document-frequency statistics.

use std::collections::HashMap;

/// A growable vocabulary mapping tokens to dense ids, tracking term and
/// document frequencies. The foundation of every bag-of-words model in the
/// workspace (TF-IDF embedder, LDA, NMF, …).
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    token_to_id: HashMap<String, u32>,
    id_to_token: Vec<String>,
    /// Total occurrences of each token across all added documents.
    term_freq: Vec<u64>,
    /// Number of documents each token occurred in at least once.
    doc_freq: Vec<u64>,
    n_docs: u64,
}

impl Vocabulary {
    /// Create an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.id_to_token.len()
    }

    /// True if no tokens have been added.
    pub fn is_empty(&self) -> bool {
        self.id_to_token.is_empty()
    }

    /// Number of documents added via [`Vocabulary::add_document`].
    pub fn n_docs(&self) -> u64 {
        self.n_docs
    }

    /// Intern `token`, returning its id (existing or newly assigned).
    pub fn intern(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.token_to_id.get(token) {
            return id;
        }
        let id = self.id_to_token.len() as u32;
        self.token_to_id.insert(token.to_string(), id);
        self.id_to_token.push(token.to_string());
        self.term_freq.push(0);
        self.doc_freq.push(0);
        id
    }

    /// Add one document's tokens, updating term and document frequencies,
    /// and return the token-id sequence.
    pub fn add_document<I, S>(&mut self, tokens: I) -> Vec<u32>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        self.n_docs += 1;
        let mut ids = Vec::new();
        for tok in tokens {
            let id = self.intern(tok.as_ref());
            self.term_freq[id as usize] += 1;
            ids.push(id);
        }
        // Document frequency counts each token once per document.
        let mut seen = ids.clone();
        seen.sort_unstable();
        seen.dedup();
        for id in seen {
            self.doc_freq[id as usize] += 1;
        }
        ids
    }

    /// Encode a document without mutating frequencies; unknown tokens are
    /// dropped.
    pub fn encode<'a, I>(&self, tokens: I) -> Vec<u32>
    where
        I: IntoIterator<Item = &'a str>,
    {
        tokens
            .into_iter()
            .filter_map(|t| self.token_to_id.get(t).copied())
            .collect()
    }

    /// The id of `token`, if interned.
    pub fn id_of(&self, token: &str) -> Option<u32> {
        self.token_to_id.get(token).copied()
    }

    /// The token for `id`, if valid.
    pub fn token_of(&self, id: u32) -> Option<&str> {
        self.id_to_token.get(id as usize).map(String::as_str)
    }

    /// Total term frequency of the token with `id`.
    pub fn term_freq(&self, id: u32) -> u64 {
        self.term_freq.get(id as usize).copied().unwrap_or(0)
    }

    /// Document frequency of the token with `id`.
    pub fn doc_freq(&self, id: u32) -> u64 {
        self.doc_freq.get(id as usize).copied().unwrap_or(0)
    }

    /// Smoothed inverse document frequency: `ln((1 + N) / (1 + df)) + 1`.
    pub fn idf(&self, id: u32) -> f32 {
        let df = self.doc_freq(id) as f64;
        let n = self.n_docs as f64;
        (((1.0 + n) / (1.0 + df)).ln() + 1.0) as f32
    }

    /// Iterate `(token, id)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u32)> {
        self.id_to_token
            .iter()
            .enumerate()
            .map(|(i, t)| (t.as_str(), i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.intern("crash");
        let b = v.intern("crash");
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn frequencies() {
        let mut v = Vocabulary::new();
        v.add_document(["crash", "crash", "slow"]);
        v.add_document(["slow", "ui"]);
        let crash = v.id_of("crash").unwrap();
        let slow = v.id_of("slow").unwrap();
        assert_eq!(v.term_freq(crash), 2);
        assert_eq!(v.doc_freq(crash), 1);
        assert_eq!(v.term_freq(slow), 2);
        assert_eq!(v.doc_freq(slow), 2);
        assert_eq!(v.n_docs(), 2);
    }

    #[test]
    fn idf_orders_rare_above_common() {
        let mut v = Vocabulary::new();
        for _ in 0..10 {
            v.add_document(["common"]);
        }
        v.add_document(["rare"]);
        let c = v.id_of("common").unwrap();
        let r = v.id_of("rare").unwrap();
        assert!(v.idf(r) > v.idf(c));
    }

    #[test]
    fn encode_drops_unknown() {
        let mut v = Vocabulary::new();
        v.add_document(["a", "b"]);
        let ids = v.encode(["a", "zzz", "b"]);
        assert_eq!(ids.len(), 2);
    }
}
