//! Observability contract, end to end:
//!
//! - deterministic metrics (counters, histograms, meta, span-tree shape) are
//!   byte-identical across thread counts, clean AND under 30% chaos;
//! - the span tree of a known run has a pinned shape;
//! - a disabled recorder (the default) yields an empty report;
//! - `JournalMode::Fresh` refuses a journal that already has entries.

use allhands::datasets::{generate_n, DatasetKind};
use allhands::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The thread override is process-global; serialize the tests in this binary.
static OVERRIDE_GUARD: Mutex<()> = Mutex::new(());

const QUESTIONS: [&str; 3] = [
    "How many feedback entries are there?",
    "Which topic appears most frequently?",
    "What topic has the most negative sentiment score on average?",
];

fn corpus(n: usize) -> (Vec<String>, Vec<LabeledExample>, Vec<String>) {
    let records = generate_n(DatasetKind::GoogleStoreApp, n, 17);
    let texts: Vec<String> = records.iter().map(|r| r.text.clone()).collect();
    let labeled: Vec<LabeledExample> = records
        .iter()
        .take(n / 2)
        .map(|r| LabeledExample { text: r.text.clone(), label: r.label.clone() })
        .collect();
    let predefined =
        vec!["bug".to_string(), "crash".to_string(), "feature request".to_string()];
    (texts, labeled, predefined)
}

/// Full instrumented run: pipeline + the three questions. Returns the
/// transcript and the final run report.
fn instrumented_run(config: AllHandsConfig, n: usize) -> (String, RunReport) {
    let (texts, labeled, predefined) = corpus(n);
    let (mut ah, frame) = AllHands::builder(ModelTier::Gpt4)
        .config(config)
        .recorder(RecorderMode::Enabled)
        .analyze(&texts, &labeled, &predefined)
        .expect("pipeline must degrade, not fail");
    let mut out = String::new();
    out.push_str(&frame.to_table_string(200));
    for q in QUESTIONS {
        out.push_str(&ah.ask(q).expect("ask failed").render());
    }
    let report = ah.run_report();
    allhands::obs::validate_report_json(&report.to_json()).expect("run report schema");
    (out, report)
}

fn chaos_config() -> AllHandsConfig {
    AllHandsConfig { resilience: ResilienceConfig::chaos(7, 0.3), ..AllHandsConfig::default() }
}

#[test]
fn deterministic_metrics_identical_across_thread_counts() {
    let _g = OVERRIDE_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    for (tag, config) in [
        ("clean", AllHandsConfig::default as fn() -> AllHandsConfig),
        ("chaos", chaos_config),
    ] {
        let (serial_out, serial_report) =
            allhands::par::with_threads(1, || instrumented_run(config(), 80));
        let serial_metrics =
            serde_json::to_string_pretty(&serial_report.deterministic_json()).unwrap();
        assert!(serial_report.counter("classify.docs") >= 80, "{tag}: classify uncounted");
        assert_eq!(serial_report.counter("qa.questions"), 3, "{tag}");
        for threads in [2usize, 8] {
            let (out, report) =
                allhands::par::with_threads(threads, || instrumented_run(config(), 80));
            assert_eq!(serial_out, out, "{tag}: transcript diverged at threads={threads}");
            let metrics = serde_json::to_string_pretty(&report.deterministic_json()).unwrap();
            assert_eq!(
                serial_metrics, metrics,
                "{tag}: deterministic metrics diverged at threads={threads}"
            );
        }
    }
}

#[test]
fn span_tree_shape_is_pinned() {
    let _g = OVERRIDE_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    // 40 docs < one 64-doc span batch, so classification is one batch[0].
    let (_, report) = allhands::par::with_threads(1, || instrumented_run(AllHandsConfig::default(), 40));
    let paths = report.span_paths();
    let expected = [
        "pipeline",
        "pipeline > classify",
        "pipeline > classify > batch[0]",
        "pipeline > topics",
        "pipeline > topics > round[0]",
        "pipeline > topics > hac",
        "pipeline > topics > merge",
        "pipeline > topics > round[1]",
        "qa",
        "qa > question[0]",
        "qa > question[0] > plan",
        "qa > question[0] > codegen[0]",
        "qa > question[0] > execute[0]",
        "qa > question[1]",
        "qa > question[1] > plan",
        "qa > question[1] > codegen[0]",
        "qa > question[1] > execute[0]",
        "qa > question[2]",
        "qa > question[2] > plan",
        "qa > question[2] > codegen[0]",
        "qa > question[2] > execute[0]",
    ];
    assert_eq!(paths, expected, "span tree shape drifted");
}

#[test]
fn disabled_recorder_yields_empty_report() {
    let _g = OVERRIDE_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let (texts, labeled, predefined) = corpus(40);
    // RecorderMode::Disabled is the default.
    let (mut ah, _frame) = AllHands::builder(ModelTier::Gpt4)
        .analyze(&texts, &labeled, &predefined)
        .expect("pipeline failed");
    let _ = ah.ask(QUESTIONS[0]).expect("ask failed");
    assert!(!ah.recorder().is_enabled());
    let report = ah.run_report();
    assert!(report.is_empty(), "disabled recorder must record nothing");
    assert!(report.span_paths().is_empty());
    assert_eq!(report.counter("qa.questions"), 0);
}

/// Fresh scratch directory under the cargo-managed tmpdir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("observability-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("stale scratch dir");
    }
    dir
}

#[test]
fn journal_fresh_mode_refuses_existing_entries() {
    let _g = OVERRIDE_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let (texts, labeled, predefined) = corpus(40);
    let dir = scratch_dir("fresh");
    // First run: the journal is brand new, Fresh is satisfied.
    let (_ah, _frame) = AllHands::builder(ModelTier::Gpt4)
        .journal(JournalMode::Fresh(dir.clone()))
        .analyze(&texts, &labeled, &predefined)
        .expect("fresh journal on an empty dir must work");
    // Release the journal lock so the re-opens below exercise the Fresh
    // check and replay, not the lock.
    drop(_ah);
    // Second run: the journal now holds committed stages — Fresh refuses,
    // Continue replays.
    let err = match AllHands::builder(ModelTier::Gpt4)
        .journal(JournalMode::Fresh(dir.clone()))
        .analyze(&texts, &labeled, &predefined)
    {
        Ok(_) => panic!("fresh journal over committed entries must error"),
        Err(e) => e.to_string(),
    };
    assert!(err.contains("Fresh"), "unexpected error: {err}");
    let (_ah, _frame) = AllHands::builder(ModelTier::Gpt4)
        .journal(JournalMode::Continue(dir.clone()))
        .analyze(&texts, &labeled, &predefined)
        .expect("continue over committed entries must replay");
    std::fs::remove_dir_all(&dir).ok();
}
