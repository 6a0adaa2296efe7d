//! Golden outputs: the frames the pipeline produces, pinned across builds.
//!
//! The determinism suites compare runs inside one build, so a change that
//! moves an output bit the same way at every thread count passes all of
//! them. This suite compares against values recorded from an earlier
//! build: for each corpus, the analyzed frame and the frame after one
//! 20-document `ingest` batch, each reduced to a fingerprint of its
//! serialized bytes. A change meant to preserve outputs leaves every pinned
//! value as it is; a change that alters outputs on purpose updates the
//! values (the failure message prints the new ones) and says why.
//!
//! The corpora cover both model tiers, the eleven-label ForumPost
//! classifier, and MSearch, whose label glosses are not ASCII. The ingest
//! batch is tuned to flush its pending pool, so the re-summarization round
//! of the ingest path is pinned too.

use allhands::datasets::spec::spec_for;
use allhands::datasets::{generate_n, DatasetKind};
use allhands::journal::fingerprint;
use allhands::prelude::*;

const SEED: u64 = 42;
/// Documents analyzed per corpus; small enough for a debug build.
const DOCS: usize = 240;
/// Labeled demonstrations per corpus, drawn ahead of the documents.
const LABELED: usize = 120;
/// Documents in the one ingest batch, drawn after the analyzed ones.
const BATCH: usize = 20;

/// Fingerprint of a frame's serialized bytes.
fn frame_fingerprint(frame: &DataFrame) -> String {
    let bytes = serde_json::to_string(frame).expect("frames serialize");
    fingerprint([bytes.as_bytes()])
}

/// Analyze one corpus, ingest one batch, and return the fingerprints of
/// the analyzed frame and of the frame after the batch.
fn golden(kind: DatasetKind, tier: ModelTier, labels: usize) -> (String, String) {
    let records = generate_n(kind, LABELED + DOCS + BATCH, SEED);
    let labeled: Vec<LabeledExample> = records[..LABELED]
        .iter()
        .map(|r| LabeledExample { text: r.text.clone(), label: r.label.clone() })
        .collect();
    let mut distinct: Vec<&str> = labeled.iter().map(|ex| ex.label.as_str()).collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), labels, "{kind:?}: the labeled sample must cover every label");
    let (docs, batch) = records[LABELED..].split_at(DOCS);
    let texts: Vec<String> = docs.iter().map(|r| r.text.clone()).collect();
    let batch: Vec<String> = batch.iter().map(|r| r.text.clone()).collect();
    let predefined: Vec<String> =
        spec_for(kind).topic_names().into_iter().take(3).map(String::from).collect();

    let mut config = AllHandsConfig::default();
    // Route a share of the batch to the pending pool and flush it.
    config.ingest.assign_threshold = 0.4;
    config.ingest.pending_threshold = 4;
    let (mut ah, frame) = AllHands::builder(tier)
        .config(config)
        .analyze(&texts, &labeled, &predefined)
        .expect("analyze succeeds");
    let report = ah.ingest(&batch).expect("ingest succeeds");
    assert!(report.flushed > 0, "{kind:?}: the batch must flush its pending pool");
    (frame_fingerprint(&frame), frame_fingerprint(&report.frame))
}

fn check(kind: DatasetKind, tier: ModelTier, labels: usize, analyze: &str, ingest: &str) {
    let got = golden(kind, tier, labels);
    assert_eq!(
        (got.0.as_str(), got.1.as_str()),
        (analyze, ingest),
        "{kind:?} at {tier:?}: (analyze, ingest) fingerprints moved"
    );
}

#[test]
fn google_store_app_gpt4() {
    check(DatasetKind::GoogleStoreApp, ModelTier::Gpt4, 2, "ea4122cb5fccd712", "98d812f8c8c31390");
}

#[test]
fn google_store_app_gpt35() {
    check(DatasetKind::GoogleStoreApp, ModelTier::Gpt35, 2, "7b73f2bb5ebefd84", "ee1e6ba0a113ca29");
}

#[test]
fn forum_post_gpt4() {
    check(DatasetKind::ForumPost, ModelTier::Gpt4, 11, "019923129df90f68", "3cc3e2fa50b226ed");
}

#[test]
fn msearch_gpt4() {
    check(DatasetKind::MSearch, ModelTier::Gpt4, 2, "07f18658f6f70653", "52056f92f10735ec");
}
