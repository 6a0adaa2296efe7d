//! Word and character n-gram extraction.

/// Join adjacent token windows of size `n` with `_`.
///
/// Returns an empty vector when `tokens.len() < n` or `n == 0`.
pub fn ngrams(tokens: &[String], n: usize) -> Vec<String> {
    if n == 0 || tokens.len() < n {
        return Vec::new();
    }
    tokens.windows(n).map(|w| w.join("_")).collect()
}

/// Convenience wrapper: bigrams of a token sequence.
pub fn bigrams(tokens: &[String]) -> Vec<String> {
    ngrams(tokens, 2)
}

/// Character n-grams of a word, with `<` / `>` boundary markers (fastText
/// style). Used by the multilingual embedder for subword robustness.
pub fn char_ngrams(word: &str, n: usize) -> Vec<String> {
    if n == 0 {
        return Vec::new();
    }
    let bounded: Vec<char> = std::iter::once('<')
        .chain(word.chars())
        .chain(std::iter::once('>'))
        .collect();
    if bounded.len() < n {
        return vec![bounded.iter().collect()];
    }
    bounded.windows(n).map(|w| w.iter().collect()).collect()
}

/// Character-trigram Jaccard similarity of two words (with boundary
/// markers). Builds both words' [`TrigramSet`]s; to compare one word
/// against many, build the sets once and call [`TrigramSet::jaccard`].
pub fn trigram_jaccard(a: &str, b: &str) -> f32 {
    TrigramSet::new(a).jaccard(&TrigramSet::new(b))
}

/// The distinct character trigrams of one word, with the boundary markers
/// of [`char_ngrams`], held sorted so that Jaccard similarity is a merge of
/// two slices. A word compared against many others pays for its set once.
///
/// Each trigram is packed into a `u64`, 21 bits per character, each stored
/// as its code point plus one, so the one trigram shorter than three
/// characters (the empty word's `<>`) ends in a zero field. The packing is
/// injective: the set holds the exact trigrams, not hashes, and two
/// distinct trigrams never count as one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrigramSet(Box<[u64]>);

impl TrigramSet {
    /// The trigram set of `word`; never empty.
    pub fn new(word: &str) -> Self {
        let bounded: Vec<char> = std::iter::once('<')
            .chain(word.chars())
            .chain(std::iter::once('>'))
            .collect();
        let mut grams: Vec<u64> = if bounded.len() < 3 {
            vec![pack_gram(&bounded)]
        } else {
            bounded.windows(3).map(pack_gram).collect()
        };
        grams.sort_unstable();
        grams.dedup();
        TrigramSet(grams.into_boxed_slice())
    }

    /// Jaccard similarity: shared trigrams over distinct trigrams of both
    /// words. Neither set is empty, so the union never is.
    pub fn jaccard(&self, other: &TrigramSet) -> f32 {
        let (a, b) = (&self.0, &other.0);
        let (mut i, mut j, mut inter) = (0, 0, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    inter += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        inter as f32 / (a.len() + b.len() - inter) as f32
    }
}

/// Pack up to three characters into the high-to-low 21-bit fields of a
/// `u64` (see [`TrigramSet`]).
fn pack_gram(chars: &[char]) -> u64 {
    let packed = chars.iter().fold(0u64, |acc, &c| (acc << 21) | (c as u64 + 1));
    packed << (21 * (3 - chars.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn word_ngrams() {
        let t = toks(&["app", "keeps", "crashing"]);
        assert_eq!(ngrams(&t, 2), vec!["app_keeps", "keeps_crashing"]);
        assert_eq!(ngrams(&t, 3), vec!["app_keeps_crashing"]);
        assert!(ngrams(&t, 4).is_empty());
        assert!(ngrams(&t, 0).is_empty());
    }

    #[test]
    fn bigram_alias() {
        let t = toks(&["a", "b"]);
        assert_eq!(bigrams(&t), vec!["a_b"]);
    }

    #[test]
    fn char_ngrams_with_boundaries() {
        let g = char_ngrams("app", 3);
        assert_eq!(g, vec!["<ap", "app", "pp>"]);
    }

    #[test]
    fn char_ngrams_short_word() {
        // Word shorter than n yields the whole bounded word.
        assert_eq!(char_ngrams("a", 4), vec!["<a>"]);
    }

    #[test]
    fn trigram_jaccard_values() {
        assert_eq!(trigram_jaccard("crash", "crash"), 1.0);
        // <cr cra ras ash sh> vs <cr cra ras ash shh hh>: 4 shared of 7.
        assert_eq!(trigram_jaccard("crash", "crashh"), 4.0 / 7.0);
        assert_eq!(trigram_jaccard("", ""), 1.0);
        assert_eq!(trigram_jaccard("", "a"), 0.0);
        // "aaaa" has one distinct inner trigram: {<aa, aaa, aa>}.
        assert_eq!(trigram_jaccard("aaaa", "aaa"), 1.0);
    }

    #[test]
    fn char_ngrams_unicode() {
        let g = char_ngrams("não", 3);
        assert_eq!(g.len(), 3);
        assert_eq!(g[0], "<nã");
    }
}
