//! Chaos harness: the full pipeline under seeded fault injection.
//!
//! The resilience layer's contract, exercised end to end:
//! - at a 30% fault rate the whole pipeline (classification → topic
//!   modeling → QA) completes without panicking;
//! - the same seed produces bit-identical results, degradations included;
//! - every degraded answer carries an explicit note;
//! - with injection disabled the pipeline output is identical to a run
//!   with no resilience configuration at all.

use allhands::datasets::{generate_n, DatasetKind};
use allhands::prelude::*;
use allhands::resilience::{FaultKind, Head};

const QUESTIONS: [&str; 5] = [
    "How many feedback entries are there?",
    "What is the average sentiment score across all tweets?",
    "Which topic appears most frequently?",
    "What topic has the most negative sentiment score on average?",
    "Based on the feedback, what action can be done to improve the product?",
];

fn corpus() -> (Vec<String>, Vec<LabeledExample>, Vec<String>) {
    let records = generate_n(DatasetKind::GoogleStoreApp, 120, 11);
    let texts: Vec<String> = records.iter().map(|r| r.text.clone()).collect();
    let labeled: Vec<LabeledExample> = records
        .iter()
        .take(60)
        .map(|r| LabeledExample { text: r.text.clone(), label: r.label.clone() })
        .collect();
    let predefined =
        vec!["bug".to_string(), "crash".to_string(), "feature request".to_string()];
    (texts, labeled, predefined)
}

/// Run the whole pipeline + the 5 QA questions; return a full transcript
/// (frame dump, rendered answers, degradation notes) for bit-exact
/// comparison.
fn transcript(config: AllHandsConfig) -> String {
    let (texts, labeled, predefined) = corpus();
    let (mut ah, frame) = AllHands::builder(ModelTier::Gpt4)
        .config(config)
        .analyze(&texts, &labeled, &predefined)
        .expect("pipeline must degrade, not fail");
    let mut out = String::new();
    out.push_str(&frame.to_table_string(200));
    for q in QUESTIONS {
        let r = ah.ask(q).expect("ask failed");
        assert!(r.error.is_none(), "question {q:?} errored: {:?}", r.error);
        // Every degraded answer is explicit about it.
        if !r.degradation.is_empty() {
            assert!(
                r.text_content().contains("Partial answer"),
                "degraded answer lacks note: {}",
                r.text_content()
            );
        }
        out.push_str("\n=== ");
        out.push_str(q);
        out.push('\n');
        out.push_str(&r.render());
        for note in &r.degradation {
            out.push_str(&format!("[degraded] {note}\n"));
        }
    }
    for d in ah.resilience().degradations() {
        out.push_str(&format!("[{}] {}\n", d.stage, d.note));
    }
    out
}

fn chaos_config(seed: u64, rate: f64) -> AllHandsConfig {
    AllHandsConfig {
        resilience: ResilienceConfig::chaos(seed, rate),
        ..AllHandsConfig::default()
    }
}

#[test]
fn chaos_run_completes_and_is_deterministic() {
    let a = transcript(chaos_config(42, 0.30));
    let b = transcript(chaos_config(42, 0.30));
    assert_eq!(a, b, "same seed must give a bit-identical chaos run");
}

#[test]
fn different_seeds_inject_different_faults() {
    let (texts, labeled, predefined) = corpus();
    let stats = |seed| {
        let (ah, _) = AllHands::builder(ModelTier::Gpt4)
            .config(chaos_config(seed, 0.30))
            .analyze(&texts, &labeled, &predefined)
            .expect("pipeline must degrade, not fail");
        (ah.resilience().injected(), ah.resilience().stats())
    };
    let (injected_a, stats_a) = stats(1);
    let (injected_b, _) = stats(2);
    assert!(injected_a > 0, "30% rate must inject over a 120-doc pipeline");
    assert!(stats_a.retries > 0, "transient faults must be retried");
    // Same call volume, different schedule.
    assert_ne!(injected_a, injected_b, "seeds 1 and 2 coincided exactly (astronomically unlikely)");
}

#[test]
fn retries_stay_within_budget() {
    let (texts, labeled, predefined) = corpus();
    let config = chaos_config(7, 0.30);
    let max_attempts = config.resilience.retry.max_attempts as u64;
    let (ah, _) = AllHands::builder(ModelTier::Gpt4)
        .config(config)
        .analyze(&texts, &labeled, &predefined)
        .expect("pipeline must degrade, not fail");
    let stats = ah.resilience().stats();
    // Per-operation attempts are bounded by the retry budget, so in
    // aggregate: attempts ≤ operations × max_attempts, i.e. retries can
    // never exceed (max_attempts − 1) × the number of first attempts.
    let operations = stats.attempts - stats.retries;
    assert!(
        stats.retries <= operations * (max_attempts - 1),
        "retries {} exceed budget for {} operations",
        stats.retries,
        operations
    );
    assert!(stats.total_backoff_ms > 0, "recorded backoff must accompany retries");
}

#[test]
fn disabled_injection_is_identical_to_baseline() {
    // A config with rates armed but the master switch off must match the
    // default (no resilience configured at all) byte for byte.
    let mut armed_but_off = chaos_config(42, 0.30);
    armed_but_off.resilience.enabled = false;
    let baseline = transcript(AllHandsConfig::default());
    let disabled = transcript(armed_but_off);
    assert_eq!(baseline, disabled);
    // And a clean run records no degradations at all.
    assert!(!baseline.contains("[degraded]"));
    assert!(!baseline.contains("Partial answer"));
}

#[test]
fn resilience_call_covers_all_kinds_deterministically() {
    // `ResilienceCtx::call` is the one fault-injection point: 200 calls
    // cycling the three heads at a 50% fault rate must fire every transient
    // kind and retry on every head, identically on every run.
    let run = || {
        let rec = Recorder::new();
        let ctx = ResilienceCtx::with_recorder(ResilienceConfig::chaos(5, 0.5), rec.clone());
        let outcomes: Vec<String> = (0..200)
            .map(|i| {
                let head = Head::ALL[i % Head::ALL.len()];
                match ctx.call(head, Ok) {
                    Ok(attempt) => format!("ok:{}:{attempt}", head.label()),
                    Err(e) => format!("err:{}:{e}", head.label()),
                }
            })
            .collect();
        (outcomes, rec.report())
    };
    let (outcomes_a, report_a) = run();
    let (outcomes_b, report_b) = run();
    assert_eq!(outcomes_a, outcomes_b, "call outcomes must be seed-deterministic");
    assert_eq!(report_a.deterministic_json(), report_b.deterministic_json());
    for kind in FaultKind::ALL {
        let key = format!("resilience.injected.{}", kind.label());
        assert!(report_a.counter(&key) > 0, "{key} never fired");
    }
    for head in Head::ALL {
        let key = format!("resilience.retries.{}", head.label());
        assert!(report_a.counter(&key) > 0, "{key} never fired");
    }
}
