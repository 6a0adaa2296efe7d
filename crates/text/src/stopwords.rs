//! Stopword lists for the languages that occur in the feedback corpora:
//! English (all three datasets), plus German / Spanish / French / Portuguese
//! (the multilingual MSearch dataset).

use std::collections::HashSet;
use std::sync::OnceLock;

const ENGLISH: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "been", "but", "by", "can",
    "could", "did", "do", "does", "doing", "for", "from", "had", "has",
    "have", "having", "he", "her", "here", "hers", "him", "his", "how", "i",
    "if", "in", "into", "is", "it", "its", "just", "me", "my", "of", "on",
    "or", "our", "out", "own", "she", "so", "some", "such", "than", "that",
    "the", "their", "them", "then", "there", "these", "they", "this",
    "those", "to", "too", "up", "was", "we", "were", "what", "when",
    "where", "which", "while", "who", "whom", "why", "will", "with", "would",
    "you", "your", "yours", "am", "being", "because", "about", "after",
    "again", "all", "any", "before", "between", "both", "during", "each",
    "few", "further", "more", "most", "no", "nor", "not", "now", "off",
    "once", "only", "other", "over", "s", "same", "should", "t", "under",
    "until", "very", "don", "im", "ive", "dont", "doesnt", "cant", "wont",
    "isnt", "didnt", "also", "get", "got", "gets",
];

const GERMAN: &[&str] = &[
    "der", "die", "das", "und", "ist", "ich", "nicht", "ein", "eine", "es",
    "mit", "auf", "den", "dem", "sie", "sich", "ja", "nein", "aber", "wie",
    "was", "wenn", "wir", "zu", "im", "fur", "von", "mir", "mich", "bei",
    "sehr", "oder", "auch", "noch", "nur", "war", "habe", "hat", "kann",
    "mein", "meine", "wird", "werden", "diese", "dieser",
];

const SPANISH: &[&str] = &[
    "el", "la", "los", "las", "de", "que", "y", "en", "un", "una", "es",
    "no", "se", "por", "con", "para", "su", "al", "lo", "como", "mas",
    "pero", "sus", "le", "ya", "o", "este", "si", "porque", "esta", "son",
    "entre", "cuando", "muy", "sin", "sobre", "ser", "tiene", "me", "hay",
    "donde", "quien", "desde", "todo", "nos", "mi", "yo",
];

const FRENCH: &[&str] = &[
    "le", "la", "les", "de", "des", "du", "un", "une", "et", "est", "en",
    "que", "qui", "dans", "pour", "pas", "ne", "sur", "ce", "cette", "il",
    "elle", "je", "nous", "vous", "ils", "au", "aux", "avec", "son", "sa",
    "ses", "mais", "ou", "si", "tout", "plus", "tres", "bien", "mon", "ma",
];

const PORTUGUESE: &[&str] = &[
    "o", "a", "os", "as", "de", "do", "da", "dos", "das", "que", "e", "em",
    "um", "uma", "para", "com", "nao", "por", "mais", "como", "mas", "foi",
    "ao", "ele", "ela", "seu", "sua", "ou", "ser", "quando", "muito", "ha",
    "nos", "ja", "esta", "eu", "tambem", "so", "pelo", "pela", "isso",
    "essa", "esse", "meu", "minha", "tem",
];

fn stopword_set() -> &'static HashSet<&'static str> {
    static SET: OnceLock<HashSet<&'static str>> = OnceLock::new();
    SET.get_or_init(|| {
        ENGLISH
            .iter()
            .chain(GERMAN)
            .chain(SPANISH)
            .chain(FRENCH)
            .chain(PORTUGUESE)
            .copied()
            .collect()
    })
}

/// Is this (already normalized, lowercase) word a stopword in any of the
/// supported languages?
pub fn is_stopword(word: &str) -> bool {
    stopword_set().contains(word)
}

/// Filler words that carry no topical content ("lol", "whatever", bare
/// sentiment adjectives). Topic models and summarizers treat text made of
/// these as unclassifiable.
const FILLER: &[&str] = &[
    "lol", "cool", "whatever", "hmm", "nice", "asdf", "hello", "testing",
    "stuff", "thing", "things", "mid", "ratio", "fyp", "moment", "guess",
    "bad", "terrible", "hate", "awful", "horrible", "worst", "great",
    "awesome", "fantastic", "excellent", "love", "okay", "yeah", "haha",
];

/// Is this (normalized) word pure filler — no topical content?
pub fn is_filler_word(word: &str) -> bool {
    FILLER.contains(&word)
        || FILLER.contains(&allhands_stem_helper(word).as_str())
}

fn allhands_stem_helper(word: &str) -> String {
    crate::stem::porter_stem(word)
}

/// Stopword lists per language, exposed for language detection scoring.
pub fn stopwords_for(lang: crate::Language) -> &'static [&'static str] {
    use crate::Language::*;
    match lang {
        English => ENGLISH,
        German => GERMAN,
        Spanish => SPANISH,
        French => FRENCH,
        Portuguese => PORTUGUESE,
        Other => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn english_words() {
        assert!(is_stopword("the"));
        assert!(is_stopword("with"));
        assert!(!is_stopword("crash"));
    }

    #[test]
    fn multilingual_words() {
        assert!(is_stopword("aber")); // de
        assert!(is_stopword("porque")); // es
        assert!(is_stopword("cette")); // fr
        assert!(is_stopword("tambem")); // pt (folded)
    }

    #[test]
    fn no_duplicates_blowup() {
        // Shared words across languages ("la", "de") must not panic.
        assert!(is_stopword("la"));
        assert!(is_stopword("de"));
    }
}
