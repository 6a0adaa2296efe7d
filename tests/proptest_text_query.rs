//! Property-based tests on the text substrate and the AQL language
//! front end: total functions over arbitrary input, structural invariants.

use allhands::dataframe::{Column, DataFrame};
use allhands::query::{check_syntax, Session, SessionLimits};
use allhands::text::{
    char_ngrams, fold_diacritics, normalize, porter_stem, sentences, tokenize, trigram_jaccard,
    TrigramSet, Vocabulary,
};
use proptest::prelude::*;
use std::collections::HashSet;

/// The reference trigram Jaccard, kept as the oracle for [`TrigramSet`]:
/// each word's distinct `char_ngrams` as a `HashSet<String>`.
fn hashset_jaccard(a: &str, b: &str) -> f32 {
    let ga: HashSet<String> = char_ngrams(a, 3).into_iter().collect();
    let gb: HashSet<String> = char_ngrams(b, 3).into_iter().collect();
    if ga.is_empty() || gb.is_empty() {
        return 0.0;
    }
    let inter = ga.intersection(&gb).count();
    inter as f32 / (ga.len() + gb.len() - inter) as f32
}

/// `TrigramSet` Jaccard and `trigram_jaccard` equal the oracle bit for bit.
fn assert_trigram_jaccard_exact(a: &str, b: &str) {
    let fast = TrigramSet::new(a).jaccard(&TrigramSet::new(b));
    assert_eq!(fast.to_bits(), hashset_jaccard(a, b).to_bits(), "{a:?} vs {b:?}");
    assert_eq!(trigram_jaccard(a, b).to_bits(), fast.to_bits(), "{a:?} vs {b:?}");
}

#[test]
fn trigram_set_edge_cases_match_reference() {
    let words = [
        "", "a", "é", "中", "<", ">", "<>", "ab", "aaaa", "aaa", "abab", "ababab", "crash",
        "crashh", "não", "nao", "kaputt", "inutilizável", "falsch", "🚀🚀🚀",
    ];
    for a in words {
        for b in words {
            assert_trigram_jaccard_exact(a, b);
        }
    }
}

proptest! {
    // ---- text substrate ----------------------------------------------------

    #[test]
    fn tokenizer_never_panics_and_offsets_are_valid(s in "\\PC{0,200}") {
        let tokens = tokenize(&s);
        for t in &tokens {
            prop_assert!(t.offset <= s.len());
            // The token's text starts at its byte offset.
            prop_assert!(s[t.offset..].starts_with(&t.text), "offset mismatch for {:?}", t);
        }
        // Offsets strictly increase.
        for pair in tokens.windows(2) {
            prop_assert!(pair[0].offset < pair[1].offset);
        }
    }

    #[test]
    fn sentences_cover_only_input_content(s in "[ -~]{0,200}") {
        for span in sentences(&s) {
            prop_assert!(s.contains(span));
            prop_assert!(!span.is_empty());
        }
    }

    #[test]
    fn normalize_is_idempotent(s in "\\PC{0,40}") {
        let once = normalize(&s);
        prop_assert_eq!(normalize(&once), once);
    }

    #[test]
    fn fold_diacritics_is_idempotent_and_ascii_preserving(s in "[a-zA-Z àéîõüß]{0,40}") {
        let once = fold_diacritics(&s);
        prop_assert_eq!(fold_diacritics(&once), once.clone());
        prop_assert!(once.chars().all(|c| c.is_ascii() || !"àéîõüß".contains(c)));
    }

    #[test]
    fn porter_stem_total_and_shrinking(s in "[a-z]{1,20}") {
        let stem = porter_stem(&s);
        prop_assert!(!stem.is_empty());
        prop_assert!(stem.len() <= s.len() + 1, "{s} -> {stem}");
        prop_assert!(stem.is_ascii());
    }

    #[test]
    fn trigram_set_jaccard_matches_hashset_reference(
        // Small alphabets, one with the boundary markers in it: empty and
        // one-character words, ASCII and not; the two-letter one repeats
        // trigrams within most words.
        a in "[ab<>é中]{0,7}",
        b in "[aé]{0,9}",
        c in "\\PC{0,12}",
    ) {
        for (x, y) in [(&a, &b), (&b, &a), (&a, &c), (&b, &b), (&c, &c)] {
            assert_trigram_jaccard_exact(x, y);
        }
    }

    #[test]
    fn vocabulary_ids_are_dense_and_stable(tokens in proptest::collection::vec("[a-f]{1,3}", 0..50)) {
        let mut v = Vocabulary::new();
        let ids = v.add_document(tokens.iter().map(String::as_str));
        prop_assert_eq!(ids.len(), tokens.len());
        for (tok, id) in tokens.iter().zip(&ids) {
            prop_assert_eq!(v.id_of(tok), Some(*id));
            prop_assert_eq!(v.token_of(*id), Some(tok.as_str()));
        }
        prop_assert!(v.len() <= tokens.len().max(1));
    }

    // ---- AQL front end -----------------------------------------------------

    #[test]
    fn parser_never_panics(s in "\\PC{0,120}") {
        let _ = check_syntax(&s); // errors fine, panics not
    }

    #[test]
    fn executor_never_panics_on_fuzzed_programs(
        col in "[a-c]",
        num in -100i64..100,
        op in prop::sample::select(vec!["==", "!=", "<", ">", "<=", ">="]),
        method in prop::sample::select(vec!["count()", "head(2)", "value_counts(\"k\")", "mean(\"v\")"]),
    ) {
        let program = format!(
            "show(feedback.filter(v {op} {num}).{method});\nshow(feedback.filter(k == \"{col}\").count())"
        );
        let mut session = Session::new(SessionLimits::default());
        session.bind_frame(
            "feedback",
            DataFrame::new(vec![
                Column::from_strs("k", &["a", "b", "c", "a"]),
                Column::from_i64s("v", &[1, -5, 50, 99]),
            ])
            .unwrap(),
        );
        let result = session.execute(&program);
        // Must either succeed with outputs or fail with a message — never panic.
        if result.error.is_none() {
            prop_assert_eq!(result.shown.len(), 2);
        }
    }

    #[test]
    fn arithmetic_matches_rust_semantics(a in -1000i64..1000, b in 1i64..1000) {
        let mut session = Session::new(SessionLimits::default());
        let r = session.execute(&format!("show({a} + {b}); show({a} * {b}); show({a} / {b})"));
        prop_assert!(r.error.is_none(), "{:?}", r.error);
        let vals: Vec<f64> = r
            .shown
            .iter()
            .map(|v| match v {
                allhands::query::RtValue::Scalar(s) => s.as_f64().unwrap(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        prop_assert_eq!(vals[0], (a + b) as f64);
        prop_assert_eq!(vals[1], (a * b) as f64);
        prop_assert!((vals[2] - a as f64 / b as f64).abs() < 1e-9);
    }
}
