//! Text-processing substrate for AllHands.
//!
//! This crate provides the low-level natural-language building blocks the
//! rest of the workspace is assembled from: tokenization, normalization,
//! stemming, stopword filtering, n-gram extraction, language/script
//! detection, emoji handling, and vocabulary construction.
//!
//! Everything here is deterministic and allocation-conscious; the tokenizer
//! and normalizer are on the hot path of every classifier, embedder, and
//! topic model in the workspace.
//!
//! # Example
//!
//! ```
//! use allhands_text::{tokenize, normalize, Vocabulary};
//!
//! let tokens = tokenize("The app crashes on startup! 😡");
//! assert!(tokens.iter().any(|t| t.text == "crashes"));
//!
//! let mut vocab = Vocabulary::new();
//! vocab.add_document(tokens.iter().map(|t| normalize(&t.text)));
//! assert!(vocab.id_of("crashes").is_some());
//! ```

pub mod emoji;
pub mod lang;
pub mod ngrams;
pub mod normalize;
pub mod stem;
pub mod stopwords;
pub mod tokenize;
pub mod vocab;

pub use emoji::{extract_emoji, is_emoji};
pub use lang::{detect_language, Language};
pub use ngrams::{bigrams, char_ngrams, ngrams, trigram_jaccard, TrigramSet};
pub use normalize::{fold_diacritics, normalize};
pub use stem::porter_stem;
pub use stopwords::{is_filler_word, is_stopword};
pub use tokenize::{sentences, tokenize, Token, TokenKind};
pub use vocab::Vocabulary;

/// Tokenize, normalize, drop stopwords/punctuation, and stem: the standard
/// preprocessing pipeline used by the bag-of-words models in this workspace.
///
/// Emoji are kept verbatim (they carry sentiment signal in feedback data);
/// URLs and numbers are mapped to the placeholder tokens `<url>` / `<num>`.
pub fn preprocess(text: &str) -> Vec<String> {
    tokenize(text)
        .into_iter()
        .filter_map(|tok| match tok.kind {
            TokenKind::Word => {
                let norm = normalize(&tok.text);
                if norm.is_empty() || is_stopword(&norm) {
                    None
                } else {
                    Some(porter_stem(&norm))
                }
            }
            TokenKind::Emoji => Some(tok.text),
            TokenKind::Url => Some("<url>".to_string()),
            TokenKind::Number => Some("<num>".to_string()),
            TokenKind::Punct => None,
        })
        .collect()
}

/// Like [`preprocess`] but without stemming or stopword removal — used where
/// surface forms matter (topic labels, summaries, readability checks).
pub fn light_preprocess(text: &str) -> Vec<String> {
    tokenize(text)
        .into_iter()
        .filter_map(|tok| match tok.kind {
            TokenKind::Word => {
                let norm = normalize(&tok.text);
                (!norm.is_empty()).then_some(norm)
            }
            TokenKind::Emoji => Some(tok.text),
            TokenKind::Url => Some("<url>".to_string()),
            TokenKind::Number => Some("<num>".to_string()),
            TokenKind::Punct => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preprocess_stems_and_filters() {
        let toks = preprocess("The apps are crashing constantly!");
        assert!(!toks.iter().any(|t| t == "the" || t == "are"));
        assert!(toks.contains(&"crash".to_string()));
    }

    #[test]
    fn preprocess_keeps_emoji_and_placeholders() {
        let toks = preprocess("visit https://example.com 😡 5 times");
        assert!(toks.contains(&"<url>".to_string()));
        assert!(toks.contains(&"<num>".to_string()));
        assert!(toks.contains(&"😡".to_string()));
    }

    #[test]
    fn light_preprocess_keeps_stopwords() {
        let toks = light_preprocess("The app is great");
        assert_eq!(toks, vec!["the", "app", "is", "great"]);
    }
}
