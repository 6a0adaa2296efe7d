//! Non-negative matrix factorization (Lee & Seung 2000) on the TF-IDF
//! document-term matrix, with Frobenius-norm multiplicative updates.
//!
//! `X ≈ W · H` with `W: docs × k` (document-topic loadings) and
//! `H: k × terms` (topic-word loadings). X is kept sparse.

use crate::corpus::Corpus;
use crate::TopicModelOutput;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// NMF hyperparameters.
#[derive(Debug, Clone)]
pub struct NmfConfig {
    pub k: usize,
    pub iterations: usize,
    pub seed: u64,
}

impl Default for NmfConfig {
    fn default() -> Self {
        NmfConfig { k: 15, iterations: 80, seed: 13 }
    }
}

/// A fitted NMF model.
pub struct NmfModel {
    /// docs × k.
    pub w: Vec<Vec<f32>>,
    /// k × terms.
    pub h: Vec<Vec<f32>>,
    k: usize,
}

/// Fit NMF on the corpus's TF-IDF matrix.
pub fn fit_nmf(corpus: &Corpus, config: &NmfConfig) -> NmfModel {
    assert!(config.k >= 2, "k must be >= 2");
    let k = config.k;
    let n = corpus.n_docs();
    let v = corpus.n_terms().max(1);
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);

    // Sparse X rows: (term, tfidf).
    let x: Vec<Vec<(u32, f32)>> = (0..n)
        .map(|d| {
            corpus
                .doc_term_counts(d)
                .into_iter()
                .map(|(t, c)| (t, corpus.tfidf(c, t)))
                .collect()
        })
        .collect();

    let mut w: Vec<Vec<f32>> = (0..n)
        .map(|_| (0..k).map(|_| rng.gen_range(0.01..1.0)).collect())
        .collect();
    let mut h: Vec<Vec<f32>> = (0..k)
        .map(|_| (0..v).map(|_| rng.gen_range(0.01..1.0)).collect())
        .collect();
    const EPS: f32 = 1e-9;

    for _ in 0..config.iterations {
        // ---- update H: H <- H * (WᵀX) / (WᵀWH) ----
        // WᵀX (k × v): accumulate over sparse X.
        let mut wtx = vec![vec![0.0f32; v]; k];
        for (d, row) in x.iter().enumerate() {
            for &(term, val) in row {
                for t in 0..k {
                    wtx[t][term as usize] += w[d][t] * val;
                }
            }
        }
        // WᵀW (k × k).
        let mut wtw = vec![vec![0.0f32; k]; k];
        for wd in &w {
            for a in 0..k {
                for b in 0..k {
                    wtw[a][b] += wd[a] * wd[b];
                }
            }
        }
        // (WᵀW)H (k × v) and the update.
        for t in 0..k {
            for term in 0..v {
                let mut denom = 0.0f32;
                for (s, wtw_row) in wtw[t].iter().enumerate() {
                    denom += wtw_row * h[s][term];
                }
                h[t][term] *= wtx[t][term] / (denom + EPS);
            }
        }

        // ---- update W: W <- W * (XHᵀ) / (WHHᵀ) ----
        // HHᵀ (k × k).
        let mut hht = vec![vec![0.0f32; k]; k];
        for a in 0..k {
            for b in 0..k {
                let mut s = 0.0f32;
                for (ha, hb) in h[a].iter().zip(&h[b]).take(v) {
                    s += ha * hb;
                }
                hht[a][b] = s;
            }
        }
        for (d, row) in x.iter().enumerate() {
            // XHᵀ row (1 × k) from the sparse doc row.
            let mut xht = vec![0.0f32; k];
            for &(term, val) in row {
                for t in 0..k {
                    xht[t] += val * h[t][term as usize];
                }
            }
            for t in 0..k {
                let mut denom = 0.0f32;
                for s in 0..k {
                    denom += w[d][s] * hht[s][t];
                }
                w[d][t] *= xht[t] / (denom + EPS);
            }
        }
    }
    NmfModel { w, h, k }
}

impl NmfModel {
    /// Convert to the uniform output shape.
    pub fn output(&self, corpus: &Corpus, top_n: usize) -> TopicModelOutput {
        let top_words: Vec<Vec<String>> = (0..self.k)
            .map(|t| {
                let mut ids: Vec<u32> = (0..corpus.n_terms() as u32).collect();
                ids.sort_by(|&a, &b| {
                    self.h[t][b as usize]
                        .partial_cmp(&self.h[t][a as usize])
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
                ids.into_iter()
                    .take(top_n)
                    .filter(|&id| self.h[t][id as usize] > 1e-6)
                    .filter_map(|id| corpus.vocab.token_of(id).map(str::to_string))
                    .collect()
            })
            .collect();
        let mut doc_topic = Vec::with_capacity(corpus.n_docs());
        let mut doc_confidence = Vec::with_capacity(corpus.n_docs());
        for d in 0..corpus.n_docs() {
            let row = &self.w[d];
            let total: f32 = row.iter().sum();
            if corpus.docs[d].is_empty() || total <= 1e-9 {
                doc_topic.push(None);
                doc_confidence.push(0.0);
                continue;
            }
            let (best, val) = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, &v)| (i, v))
                .expect("k >= 2");
            doc_topic.push(Some(best));
            doc_confidence.push((val / total) as f64);
        }
        TopicModelOutput { top_words, doc_topic, doc_confidence }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Corpus {
        let mut texts = Vec::new();
        for i in 0..25 {
            texts.push(format!("crash bug error freeze broken {i}"));
            texts.push(format!("love great amazing wonderful fast {i}"));
        }
        Corpus::build(&texts, 2, 1.0)
    }

    #[test]
    fn separates_themes() {
        let c = corpus();
        let model = fit_nmf(&c, &NmfConfig { k: 2, iterations: 80, seed: 1 });
        let out = model.output(&c, 5);
        assert_ne!(out.doc_topic[0], out.doc_topic[1]);
        let joined: Vec<String> = out.top_words.iter().map(|w| w.join(" ")).collect();
        assert!(joined.iter().any(|w| w.contains("crash")));
        assert!(joined.iter().any(|w| w.contains("love") || w.contains("great")));
    }

    #[test]
    fn factors_stay_nonnegative() {
        let c = corpus();
        let model = fit_nmf(&c, &NmfConfig { k: 3, iterations: 20, seed: 2 });
        assert!(model.w.iter().flatten().all(|&v| v >= 0.0));
        assert!(model.h.iter().flatten().all(|&v| v >= 0.0));
    }

    #[test]
    fn deterministic_per_seed() {
        let c = corpus();
        let a = fit_nmf(&c, &NmfConfig { k: 2, iterations: 10, seed: 9 });
        let b = fit_nmf(&c, &NmfConfig { k: 2, iterations: 10, seed: 9 });
        assert_eq!(a.w[0], b.w[0]);
    }
}
