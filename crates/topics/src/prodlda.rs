//! ProdLDA (Srivastava & Sutton 2017): a logistic-normal neural topic
//! model trained as a variational autoencoder, with manual gradients.
//!
//! Architecture (the paper's, linearized):
//! encoder `x → (μ, log σ²)`; reparameterized sample `z = μ + ε·σ`;
//! document-topic mixture `θ = softmax(z)`; decoder (product of experts)
//! `p = softmax(θᵀ·β)`. Loss = multinomial reconstruction + KL(q‖N(0,I)).
//!
//! The encoder input is pluggable — normalized bag-of-words for ProdLDA,
//! contextual sentence embeddings for [`crate::ctm`] (CTM extends ProdLDA
//! "by using pre-trained language representations").

use crate::corpus::Corpus;
use crate::TopicModelOutput;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Neural topic model hyperparameters.
#[derive(Debug, Clone)]
pub struct ProdLdaConfig {
    pub k: usize,
    pub epochs: usize,
    pub learning_rate: f32,
    pub seed: u64,
}

impl Default for ProdLdaConfig {
    fn default() -> Self {
        ProdLdaConfig { k: 15, epochs: 40, learning_rate: 0.05, seed: 23 }
    }
}

/// A fitted neural topic model (shared by ProdLDA and CTM).
pub struct NeuralTopicModel {
    /// Encoder mean weights: k × input_dim.
    enc_mu: Vec<Vec<f32>>,
    mu_bias: Vec<f32>,
    /// Decoder topic-word weights: k × vocab.
    beta: Vec<Vec<f32>>,
    k: usize,
}

fn softmax(v: &mut [f32]) {
    let max = v.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for x in v.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    for x in v.iter_mut() {
        *x /= sum;
    }
}

/// Standard normal sample via Box–Muller.
fn gaussian(rng: &mut ChaCha8Rng) -> f32 {
    let u1: f32 = rng.gen_range(1e-7..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Fit the VAE. `features[d]` is the encoder input for document `d`
/// (any fixed dimension); targets are the corpus term counts.
pub fn fit_neural(
    corpus: &Corpus,
    features: &[Vec<f32>],
    config: &ProdLdaConfig,
) -> NeuralTopicModel {
    assert_eq!(features.len(), corpus.n_docs(), "one feature row per doc");
    assert!(config.k >= 2, "k must be >= 2");
    let k = config.k;
    let input_dim = features.first().map_or(0, Vec::len).max(1);
    let v = corpus.n_terms().max(1);
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);

    let mut init = |rows: usize, cols: usize| -> Vec<Vec<f32>> {
        (0..rows)
            .map(|_| (0..cols).map(|_| rng.gen_range(-0.05..0.05)).collect())
            .collect()
    };
    let mut enc_mu = init(k, input_dim);
    let mut enc_lv = init(k, input_dim);
    let mut beta = init(k, v);
    let mut mu_bias = vec![0.0f32; k];
    let mut lv_bias = vec![0.0f32; k];

    // Sparse targets.
    let targets: Vec<Vec<(u32, f32)>> = (0..corpus.n_docs())
        .map(|d| {
            corpus
                .doc_term_counts(d)
                .into_iter()
                .map(|(t, c)| (t, c as f32))
                .collect()
        })
        .collect();

    let lr = config.learning_rate;
    let mut order: Vec<usize> = (0..corpus.n_docs()).collect();
    use rand::seq::SliceRandom;

    for _ in 0..config.epochs {
        order.shuffle(&mut rng);
        for &d in &order {
            let x = &features[d];
            let target = &targets[d];
            let n_d: f32 = target.iter().map(|&(_, c)| c).sum();
            if n_d == 0.0 {
                continue;
            }
            // ---- forward ----
            let mut mu = mu_bias.clone();
            let mut lv = lv_bias.clone();
            for t in 0..k {
                for (i, &xi) in x.iter().enumerate() {
                    mu[t] += enc_mu[t][i] * xi;
                    lv[t] += enc_lv[t][i] * xi;
                }
                lv[t] = lv[t].clamp(-6.0, 2.0);
            }
            let eps: Vec<f32> = (0..k).map(|_| gaussian(&mut rng)).collect();
            let z: Vec<f32> = (0..k).map(|t| mu[t] + eps[t] * (0.5 * lv[t]).exp()).collect();
            let mut theta = z.clone();
            softmax(&mut theta);
            // Decoder logits over the vocab (dense, k·v work per doc).
            let mut logits = vec![0.0f32; v];
            for t in 0..k {
                let th = theta[t];
                if th < 1e-8 {
                    continue;
                }
                for (l, b) in logits.iter_mut().zip(&beta[t]) {
                    *l += th * b;
                }
            }
            let mut p = logits.clone();
            softmax(&mut p);

            // ---- backward ----
            // d loss / d logits = n_d * p − x (multinomial CE with counts).
            let mut dlogits: Vec<f32> = p.iter().map(|&pv| n_d * pv).collect();
            for &(term, c) in target {
                dlogits[term as usize] -= c;
            }
            // Scale down so updates are stable across document lengths.
            let scale = 1.0 / n_d;
            // Grad wrt theta and beta. The decoder gradient carries a
            // θ_t factor (≈1/k), which starves beta of signal at practical
            // epoch counts — give the decoder block its own, larger step
            // (standard per-block learning rates).
            let beta_lr = lr * 6.0;
            let mut dtheta = vec![0.0f32; k];
            for t in 0..k {
                let mut acc = 0.0f32;
                let row = &mut beta[t];
                let th = theta[t];
                for (vi, &dl) in dlogits.iter().enumerate() {
                    acc += dl * row[vi];
                    row[vi] -= beta_lr * scale * dl * th;
                }
                dtheta[t] = acc;
            }
            // Softmax jacobian: dz = theta ⊙ (dtheta − ⟨dtheta, theta⟩).
            let dot: f32 = dtheta.iter().zip(&theta).map(|(a, b)| a * b).sum();
            let dz: Vec<f32> = (0..k).map(|t| theta[t] * (dtheta[t] - dot)).collect();
            // KL gradients (weight 1): dμ += μ, dlogvar += ½(e^lv − 1).
            for t in 0..k {
                let dmu = scale * dz[t] + 0.02 * mu[t];
                let dlv = scale * dz[t] * 0.5 * eps[t] * (0.5 * lv[t]).exp()
                    + 0.02 * 0.5 * (lv[t].exp() - 1.0);
                mu_bias[t] -= lr * dmu;
                lv_bias[t] -= lr * dlv;
                for (i, &xi) in x.iter().enumerate() {
                    enc_mu[t][i] -= lr * dmu * xi;
                    enc_lv[t][i] -= lr * dlv * xi;
                }
            }
        }
    }
    NeuralTopicModel { enc_mu, mu_bias, beta, k }
}

impl NeuralTopicModel {
    /// Posterior-mean topic mixture for a feature row.
    pub fn infer_theta(&self, x: &[f32]) -> Vec<f32> {
        let mut mu = self.mu_bias.clone();
        for (mu_t, row) in mu.iter_mut().zip(&self.enc_mu).take(self.k) {
            for (i, &xi) in x.iter().enumerate() {
                *mu_t += row[i] * xi;
            }
        }
        softmax(&mut mu);
        mu
    }

    /// Uniform output over the training features.
    pub fn output(
        &self,
        corpus: &Corpus,
        features: &[Vec<f32>],
        top_n: usize,
    ) -> TopicModelOutput {
        let top_words: Vec<Vec<String>> = (0..self.k)
            .map(|t| {
                let mut ids: Vec<u32> = (0..corpus.n_terms() as u32).collect();
                ids.sort_by(|&a, &b| {
                    self.beta[t][b as usize]
                        .partial_cmp(&self.beta[t][a as usize])
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
                ids.into_iter()
                    .take(top_n)
                    .filter_map(|id| corpus.vocab.token_of(id).map(str::to_string))
                    .collect()
            })
            .collect();
        let mut doc_topic = Vec::with_capacity(corpus.n_docs());
        let mut doc_confidence = Vec::with_capacity(corpus.n_docs());
        for (d, x) in features.iter().enumerate() {
            if corpus.docs[d].is_empty() {
                doc_topic.push(None);
                doc_confidence.push(0.0);
                continue;
            }
            let theta = self.infer_theta(x);
            let (best, conf) = theta
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, &p)| (i, p as f64))
                .expect("k >= 2");
            doc_topic.push(Some(best));
            doc_confidence.push(conf);
        }
        TopicModelOutput { top_words, doc_topic, doc_confidence }
    }
}

/// Normalized bag-of-words encoder features (the ProdLDA input).
pub fn bow_features(corpus: &Corpus) -> Vec<Vec<f32>> {
    let v = corpus.n_terms().max(1);
    (0..corpus.n_docs())
        .map(|d| {
            let mut row = vec![0.0f32; v];
            let counts = corpus.doc_term_counts(d);
            let total: u32 = counts.iter().map(|&(_, c)| c).sum();
            if total > 0 {
                for (term, c) in counts {
                    row[term as usize] = c as f32 / total as f32;
                }
            }
            row
        })
        .collect()
}

/// Fit ProdLDA proper (BoW encoder input).
pub fn fit_prodlda(corpus: &Corpus, config: &ProdLdaConfig) -> NeuralTopicModel {
    let features = bow_features(corpus);
    fit_neural(corpus, &features, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Corpus {
        let mut texts = Vec::new();
        for i in 0..30 {
            texts.push(format!("crash bug error freeze broken {i}"));
            texts.push(format!("love great amazing wonderful fast {i}"));
        }
        Corpus::build(&texts, 2, 1.0)
    }

    #[test]
    fn theta_is_a_distribution() {
        let c = corpus();
        let model = fit_prodlda(&c, &ProdLdaConfig { k: 3, epochs: 5, ..Default::default() });
        let f = bow_features(&c);
        let theta = model.infer_theta(&f[0]);
        assert!((theta.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        assert!(theta.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn separates_themes() {
        let c = corpus();
        let model = fit_prodlda(&c, &ProdLdaConfig { k: 2, epochs: 60, learning_rate: 0.08, seed: 3 });
        let f = bow_features(&c);
        let out = model.output(&c, &f, 5);
        // Crash docs and praise docs should mostly land on different topics.
        let crash_topics: Vec<_> = (0..c.n_docs()).step_by(2).map(|d| out.doc_topic[d]).collect();
        let praise_topics: Vec<_> = (1..c.n_docs()).step_by(2).map(|d| out.doc_topic[d]).collect();
        let crash_mode = mode(&crash_topics);
        let praise_mode = mode(&praise_topics);
        assert_ne!(crash_mode, praise_mode, "topics failed to separate");
    }

    fn mode(xs: &[Option<usize>]) -> Option<usize> {
        let mut counts = std::collections::HashMap::new();
        for x in xs.iter().flatten() {
            *counts.entry(*x).or_insert(0usize) += 1;
        }
        counts.into_iter().max_by_key(|&(_, c)| c).map(|(t, _)| t)
    }

    #[test]
    fn deterministic_per_seed() {
        let c = corpus();
        let cfg = ProdLdaConfig { k: 2, epochs: 5, seed: 8, ..Default::default() };
        let f = bow_features(&c);
        let a = fit_neural(&c, &f, &cfg);
        let b = fit_neural(&c, &f, &cfg);
        assert_eq!(a.infer_theta(&f[0]), b.infer_theta(&f[0]));
    }

    #[test]
    #[should_panic(expected = "one feature row per doc")]
    fn feature_length_mismatch_panics() {
        let c = corpus();
        fit_neural(&c, &[], &ProdLdaConfig::default());
    }
}
