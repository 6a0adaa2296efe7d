//! Golden answers: the paper conversation's responses, pinned across builds.
//!
//! `query_differential` and `reference_programs` compare engines inside one
//! build, so a change that moves every answer the same way passes both.
//! This suite compares against values recorded from an earlier build: for
//! each corpus, one session over the paper-size frame is asked the paper's
//! questions in order (the `ask-paper` conversation), and every response is
//! reduced to a fingerprint of its rendered text, its shown values, its
//! error and its attempt count. A change meant to preserve outputs leaves
//! every pinned value as it is; a change that alters answers on purpose
//! updates the values (the failure message prints the new ones) and says
//! why.
//!
//! GoogleStoreApp runs at both model tiers: the GPT-3.5 slips exercise the
//! reflection retries.

use allhands::datasets::{dataset_frame, generate, questions_for, DatasetKind};
use allhands::journal::fingerprint;
use allhands::prelude::*;

const SEED: u64 = 42;

/// Ask `kind`'s paper questions in order on one session over its paper-size
/// frame; return the fingerprint of every response and the number of
/// reflection retries.
fn golden(kind: DatasetKind, tier: ModelTier) -> (String, u32) {
    let frame = dataset_frame(kind, &generate(kind, SEED));
    let mut ah = AllHands::from_frame(tier, frame, AllHandsConfig::default());
    let mut parts: Vec<Vec<u8>> = Vec::new();
    let mut retries = 0;
    for q in questions_for(kind) {
        let r = ah.ask(q.text).expect("a from_frame session answers");
        retries += r.attempts.saturating_sub(1);
        parts.push(r.render().into_bytes());
        parts.push(serde_json::to_string(&r.shown).expect("values serialize").into_bytes());
        parts.push(format!("{:?}", r.error).into_bytes());
        parts.push(r.attempts.to_le_bytes().to_vec());
    }
    (fingerprint(parts.iter().map(Vec::as_slice)), retries)
}

/// Check the pinned fingerprint; return the retries.
fn check(kind: DatasetKind, tier: ModelTier, pinned: &str) -> u32 {
    let (got, retries) = golden(kind, tier);
    assert_eq!(got, pinned, "{kind:?} at {tier:?}: answer fingerprint moved");
    retries
}

#[test]
fn google_store_app_gpt4() {
    check(DatasetKind::GoogleStoreApp, ModelTier::Gpt4, "5c7467dca8ce9e5f");
}

#[test]
fn google_store_app_gpt35() {
    let retries = check(DatasetKind::GoogleStoreApp, ModelTier::Gpt35, "80bb2503d91002b9");
    assert!(retries > 0, "the GPT-3.5 conversation must exercise reflection retries");
}

#[test]
fn forum_post_gpt4() {
    check(DatasetKind::ForumPost, ModelTier::Gpt4, "b855c99f082661ae");
}

#[test]
fn msearch_gpt4() {
    check(DatasetKind::MSearch, ModelTier::Gpt4, "a773eaf60be201e4");
}
