//! Hashed bag-of-n-gram featurization (the stand-ins' "tokenizer +
//! encoder" front end).

use allhands_embed::hash64;
use allhands_text::{char_ngrams, fold_diacritics, light_preprocess, porter_stem};

/// A sparse L2-normalized feature vector: sorted `(index, value)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVector {
    pairs: Vec<(u32, f32)>,
}

impl SparseVector {
    /// Build from raw (possibly duplicated, unsorted) index/value pairs:
    /// duplicates are summed, the result L2-normalized.
    pub fn from_raw(mut raw: Vec<(u32, f32)>) -> Self {
        raw.sort_by_key(|&(i, _)| i);
        let mut pairs: Vec<(u32, f32)> = Vec::with_capacity(raw.len());
        for (i, v) in raw {
            match pairs.last_mut() {
                Some((last_i, last_v)) if *last_i == i => *last_v += v,
                _ => pairs.push((i, v)),
            }
        }
        let norm: f32 = pairs.iter().map(|(_, v)| v * v).sum::<f32>().sqrt();
        if norm > f32::EPSILON {
            for (_, v) in &mut pairs {
                *v /= norm;
            }
        }
        SparseVector { pairs }
    }

    /// The sorted `(index, value)` pairs.
    pub fn pairs(&self) -> &[(u32, f32)] {
        &self.pairs
    }

    /// Dot product with a dense weight row.
    pub fn dot_dense(&self, dense: &[f32]) -> f32 {
        self.pairs
            .iter()
            .map(|&(i, v)| dense.get(i as usize).copied().unwrap_or(0.0) * v)
            .sum()
    }
}

/// Featurizer configuration — the axis along which baselines differ.
#[derive(Debug, Clone)]
pub struct FeatureConfig {
    /// Hashed feature-space size (power of two).
    pub dims: usize,
    /// Include word bigrams.
    pub bigrams: bool,
    /// Include character n-grams of this size (0 = none) — the
    /// multilingual subword axis.
    pub char_ngram: usize,
    /// Fold diacritics before tokenizing (multilingual normalization).
    pub fold_diacritics: bool,
    /// Weight of character n-gram features relative to word features.
    pub char_weight: f32,
    /// Stem tokens.
    pub stem: bool,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig { dims: 1 << 15, bigrams: true, char_ngram: 0, fold_diacritics: false, char_weight: 0.3, stem: true }
    }
}

/// Text → [`SparseVector`] under a [`FeatureConfig`].
#[derive(Debug, Clone)]
pub struct Featurizer {
    config: FeatureConfig,
}

impl Featurizer {
    /// Build a featurizer.
    pub fn new(config: FeatureConfig) -> Self {
        assert!(config.dims.is_power_of_two(), "dims must be a power of two");
        Featurizer { config }
    }

    /// Feature-space size.
    pub fn dims(&self) -> usize {
        self.config.dims
    }

    fn bucket(&self, feature: &str) -> u32 {
        (hash64(feature) & (self.config.dims as u64 - 1)) as u32
    }

    /// Featurize one text.
    pub fn featurize(&self, text: &str) -> SparseVector {
        let text = if self.config.fold_diacritics {
            fold_diacritics(text)
        } else {
            text.to_string()
        };
        let mut tokens = light_preprocess(&text);
        if self.config.stem {
            for t in &mut tokens {
                *t = porter_stem(t);
            }
        }
        let mut raw: Vec<(u32, f32)> = Vec::with_capacity(tokens.len() * 2);
        for t in &tokens {
            raw.push((self.bucket(t), 1.0));
            if self.config.char_ngram > 0 && !t.starts_with('<') {
                for g in char_ngrams(t, self.config.char_ngram) {
                    raw.push((self.bucket(&format!("c:{g}")), self.config.char_weight));
                }
            }
        }
        if self.config.bigrams {
            for pair in tokens.windows(2) {
                raw.push((self.bucket(&format!("b:{}+{}", pair[0], pair[1])), 0.7));
            }
        }
        SparseVector::from_raw(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_vector_dedups_and_normalizes() {
        let v = SparseVector::from_raw(vec![(3, 1.0), (1, 2.0), (3, 1.0)]);
        assert_eq!(v.pairs().len(), 2);
        let norm: f32 = v.pairs().iter().map(|(_, x)| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
        assert!(v.pairs()[0].0 < v.pairs()[1].0);
    }

    #[test]
    fn featurize_is_deterministic() {
        let f = Featurizer::new(FeatureConfig::default());
        assert_eq!(f.featurize("the app crashes"), f.featurize("the app crashes"));
        assert_ne!(f.featurize("the app crashes"), f.featurize("love this app"));
    }

    #[test]
    fn stemming_merges_inflections() {
        let f = Featurizer::new(FeatureConfig { bigrams: false, ..Default::default() });
        let a = f.featurize("crashes");
        let b = f.featurize("crashing");
        assert_eq!(a, b);
        let unstemmed = Featurizer::new(FeatureConfig { stem: false, bigrams: false, ..Default::default() });
        assert_ne!(unstemmed.featurize("crashes"), unstemmed.featurize("crashing"));
    }

    #[test]
    fn folding_aligns_multilingual_surface() {
        let multi = Featurizer::new(FeatureConfig { fold_diacritics: true, char_ngram: 3, ..Default::default() });
        let a = multi.featurize("aplicación");
        let b = multi.featurize("aplicacion");
        assert_eq!(a, b);
    }

    #[test]
    fn char_ngrams_share_features_across_cognates() {
        let with = Featurizer::new(FeatureConfig { char_ngram: 3, fold_diacritics: true, bigrams: false, stem: false, ..Default::default() });
        let without = Featurizer::new(FeatureConfig { char_ngram: 0, fold_diacritics: true, bigrams: false, stem: false, ..Default::default() });
        let overlap = |f: &Featurizer, a: &str, b: &str| {
            let va = f.featurize(a);
            let vb = f.featurize(b);
            let ib: std::collections::HashSet<u32> = vb.pairs().iter().map(|&(i, _)| i).collect();
            va.pairs().iter().filter(|(i, _)| ib.contains(i)).count()
        };
        assert!(
            overlap(&with, "incorrectos", "incorrect") > overlap(&without, "incorrectos", "incorrect")
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_dims_panics() {
        Featurizer::new(FeatureConfig { dims: 1000, ..Default::default() });
    }
}
