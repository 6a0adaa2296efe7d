//! Incremental ingestion determinism: a fixed batch sequence must produce
//! byte-identical transcripts at `ALLHANDS_THREADS ∈ {1, 8}`, clean or
//! under 30% fault injection; a journaled stream killed at any ingest
//! crash point must resume byte-identically; and replayed batches must
//! restore frames, topic state, and index structure without recomputing.
//!
//! Also here: the `ingest > batch[i] > classify/assign/index` span family
//! with its deterministic counters, the from_frame rejection, the
//! `search_similar` / `retract` facade over the incremental document index,
//! and the one copy of the rows a batch report and the agent share.

use allhands::core::InjectedCrash;
use allhands::datasets::{generate_n, DatasetKind};
use allhands::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The thread override and the panic hook are process-global; serialize
/// the tests in this binary.
static GLOBAL_GUARD: Mutex<()> = Mutex::new(());

const QUESTIONS: [&str; 2] = [
    "How many feedback entries are there?",
    "Which topic appears most frequently?",
];

fn corpus() -> (Vec<String>, Vec<LabeledExample>, Vec<String>) {
    let records = generate_n(DatasetKind::GoogleStoreApp, 30, 23);
    let texts: Vec<String> = records.iter().map(|r| r.text.clone()).collect();
    let labeled: Vec<LabeledExample> = records
        .iter()
        .take(16)
        .map(|r| LabeledExample { text: r.text.clone(), label: r.label.clone() })
        .collect();
    let predefined = vec!["bug".to_string(), "crash".to_string()];
    (texts, labeled, predefined)
}

/// Three ingest batches: familiar store-app feedback (mixed direct
/// assignment and routing), then two themed novel batches that overflow
/// the pending pool and make the flush coin topics.
fn batches() -> Vec<Vec<String>> {
    let familiar: Vec<String> =
        generate_n(DatasetKind::GoogleStoreApp, 8, 101).iter().map(|r| r.text.clone()).collect();
    let battery: Vec<String> = [
        "battery drains overnight even when idle",
        "phone gets hot and battery dies fast since update",
        "battery usage doubled after the last version",
        "standby battery drain is terrible now",
        "charging takes forever and battery drains quickly",
        "battery drain while the app runs in background",
    ]
    .map(String::from)
    .to_vec();
    let dark_mode: Vec<String> = [
        "dark mode please my eyes hurt at night",
        "would love a dark mode option",
        "please add dark mode theme",
        "night theme dark mode when",
        "the white background burns please dark mode",
        "dark mode dark mode dark mode",
    ]
    .map(String::from)
    .to_vec();
    vec![familiar, battery, dark_mode]
}

/// Test configuration: small pending pool so the themed batches flush,
/// aggressive index staleness so auto-retraining fires inside the stream.
fn ingest_tuned(mut config: AllHandsConfig) -> AllHandsConfig {
    config.ingest.pending_threshold = 6;
    config.ingest.ivf_partition_docs = 8;
    config.ingest.ivf_staleness = 0.2;
    config
}

fn chaos_config() -> AllHandsConfig {
    ingest_tuned(AllHandsConfig {
        resilience: ResilienceConfig::chaos(7, 0.3),
        ..AllHandsConfig::default()
    })
}

/// Fresh scratch directory under the cargo-managed tmpdir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("ingest-determinism-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("stale scratch dir");
    }
    dir
}

/// Full transcript of an analyze + ingest-stream + QA session, for
/// bit-exact comparison. Excludes `IngestReport::replayed` on purpose: a
/// resumed run replays committed batches, and everything *observable*
/// about them must still match the uninterrupted reference.
fn render_transcript(ah: &mut AllHands, frame: &DataFrame) -> String {
    let mut out = String::new();
    out.push_str(&frame.to_table_string(100));
    for (i, batch) in batches().iter().enumerate() {
        let rep = ah.ingest(batch).expect("ingest must degrade, not fail");
        out.push_str(&format!(
            "\n=== batch {i}: new={} assigned={} routed={} flushed={} coined={:?} retrained={}\n",
            rep.new_rows, rep.assigned, rep.routed_pending, rep.flushed, rep.coined, rep.retrained
        ));
        out.push_str(&rep.frame.to_table_string(100));
    }
    for q in QUESTIONS {
        let r = ah.ask(q).expect("ask failed");
        assert!(r.error.is_none(), "question {q:?} errored: {:?}", r.error);
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
    out.push_str(&format!("injected-faults: {}\n", ah.resilience().injected()));
    out
}

/// Unjournaled run; returns the transcript plus the deterministic half of
/// the observability report.
fn transcript_plain(config: AllHandsConfig) -> (String, String) {
    let (texts, labeled, predefined) = corpus();
    let (mut ah, frame) = AllHands::builder(ModelTier::Gpt4)
        .config(config)
        .recorder(RecorderMode::Enabled)
        .analyze(&texts, &labeled, &predefined)
        .expect("pipeline must degrade, not fail");
    let out = render_transcript(&mut ah, &frame);
    (out, ah.run_report().deterministic_json().to_string())
}

/// Journaled run (fresh or resuming). Returns the transcript plus the
/// number of crash points passed.
fn transcript_journaled(config: AllHandsConfig, dir: &Path) -> (String, u64) {
    let (texts, labeled, predefined) = corpus();
    let (mut ah, frame) = AllHands::builder(ModelTier::Gpt4)
        .config(config)
        .journal(JournalMode::Continue(dir.to_path_buf()))
        .analyze(&texts, &labeled, &predefined)
        .expect("journaled pipeline must degrade, not fail");
    let out = render_transcript(&mut ah, &frame);
    (out, ah.resilience().crash_points_passed())
}

fn with_crash(mut config: AllHandsConfig, point: u64) -> AllHandsConfig {
    config.resilience.fault = config.resilience.fault.with_crash_at(point);
    config
}

/// Run a journaled stream configured to crash, swallow the injected crash
/// (silencing the default hook's backtrace spam), and return it.
fn run_crashing(config: AllHandsConfig, dir: &Path) -> InjectedCrash {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = catch_unwind(AssertUnwindSafe(|| transcript_journaled(config, dir)));
    std::panic::set_hook(prev);
    match result {
        Ok(_) => panic!("run configured to crash completed instead"),
        Err(payload) => match payload.downcast::<InjectedCrash>() {
            Ok(crash) => *crash,
            Err(other) => panic!(
                "expected an injected crash, got another panic: {:?}",
                other.downcast_ref::<String>()
            ),
        },
    }
}

#[test]
fn ingest_stream_identical_across_thread_counts_and_chaos() {
    let _g = GLOBAL_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let clean = || ingest_tuned(AllHandsConfig::default());
    for (tag, config) in
        [("clean", clean as fn() -> AllHandsConfig), ("chaos", chaos_config)]
    {
        let (serial, serial_report) =
            allhands::par::with_threads(1, || transcript_plain(config()));
        if tag == "chaos" {
            assert!(
                !serial.contains("injected-faults: 0"),
                "chaos config injected nothing"
            );
        }
        // The stream must actually exercise the machinery it claims to:
        // direct assignment, pending routing, a flush that coins topics,
        // and at least one staleness-triggered auto-retrain.
        assert!(serial.contains("coined=[\"battery\"]"), "battery flush missing:\n{serial}");
        assert!(serial.contains("retrained=true"), "no auto-retrain in stream:\n{serial}");
        let (parallel, parallel_report) =
            allhands::par::with_threads(8, || transcript_plain(config()));
        assert_eq!(serial, parallel, "ingest stream diverged at threads=8 ({tag})");
        assert_eq!(
            serial_report, parallel_report,
            "deterministic report diverged at threads=8 ({tag})"
        );
    }
}

#[test]
fn rerun_replays_committed_batches_byte_identically() {
    let _g = GLOBAL_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let config = || ingest_tuned(AllHandsConfig::default());
    let dir = scratch_dir("replay");
    let (first, _) = transcript_journaled(config(), &dir);
    // Second run over the same journal: every stage AND every ingest batch
    // replays from committed delta records.
    let (texts, labeled, predefined) = corpus();
    let (mut ah, frame) = AllHands::builder(ModelTier::Gpt4)
        .config(config())
        .journal(JournalMode::Continue(dir.clone()))
        .recorder(RecorderMode::Enabled)
        .analyze(&texts, &labeled, &predefined)
        .unwrap();
    for batch in batches() {
        let rep = ah.ingest(&batch).unwrap();
        assert!(rep.replayed, "batch {} recomputed instead of replaying", rep.batch);
    }
    assert_eq!(ah.run_report().counter("ingest.replays"), 3);
    assert!(first.starts_with(&frame.to_table_string(100)), "replayed analyze frame diverged");
    // Release the journal lock before the next session opens the directory.
    drop(ah);
    // And a full fresh session over the same journal reproduces the entire
    // transcript byte-for-byte.
    let (replayed, _) = transcript_journaled(config(), &dir);
    assert_eq!(first, replayed, "replayed stream diverged from original");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_at_ingest_points_resumes_byte_identical() {
    let _g = GLOBAL_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    for threads in [1usize, 8] {
        let (reference, _) =
            allhands::par::with_threads(threads, || transcript_plain(chaos_config()));

        // Journaling an uninterrupted run must be observationally invisible
        // — and tells us how many crash points there are.
        let dir = scratch_dir(&format!("ref-t{threads}"));
        let (journaled, points) =
            allhands::par::with_threads(threads, || transcript_journaled(chaos_config(), &dir));
        assert_eq!(reference, journaled, "journaling changed output (t={threads})");
        std::fs::remove_dir_all(&dir).ok();
        // 4 stage points + 2 per batch + 2 per question.
        let expected = 4 + 2 * batches().len() as u64 + 2 * QUESTIONS.len() as u64;
        assert_eq!(points, expected, "crash point layout changed");

        // Kill at every ingest seam (points 4..4+2*batches); stage and QA
        // seams are covered by tests/crash_chaos.rs.
        for point in 4..4 + 2 * batches().len() as u64 {
            let dir = scratch_dir(&format!("p{point}-t{threads}"));
            let crash = allhands::par::with_threads(threads, || {
                run_crashing(with_crash(chaos_config(), point), &dir)
            });
            assert_eq!(crash.point, point, "crashed at the wrong point");
            assert!(
                crash.name.starts_with("ingest:"),
                "point {point} is not an ingest seam: {}",
                crash.name
            );
            let (resumed, _) = allhands::par::with_threads(threads, || {
                transcript_journaled(chaos_config(), &dir)
            });
            assert_eq!(
                reference, resumed,
                "resume diverged after crash at point {point} ({}), t={threads}",
                crash.name
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn ingest_span_family_and_counters() {
    let _g = GLOBAL_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let (texts, labeled, predefined) = corpus();
    let (mut ah, _frame) = AllHands::builder(ModelTier::Gpt4)
        .config(ingest_tuned(AllHandsConfig::default()))
        .recorder(RecorderMode::Enabled)
        .analyze(&texts, &labeled, &predefined)
        .unwrap();
    let all = batches();
    let mut total = 0usize;
    for batch in &all {
        total += batch.len();
        ah.ingest(batch).unwrap();
    }
    // QA over the extended frame: the agent sees every ingested row.
    let r = ah.ask("How many feedback entries are there?").expect("ask failed");
    assert!(r.render().contains(&(texts.len() + total).to_string()), "{}", r.render());

    let report = ah.run_report();
    assert_eq!(report.counter("ingest.batches"), all.len() as u64);
    assert_eq!(report.counter("ingest.docs"), total as u64);
    assert_eq!(report.counter("ingest.indexed"), total as u64);
    assert_eq!(
        report.counter("ingest.assigned") + report.counter("ingest.routed_pending"),
        total as u64
    );
    assert!(report.counter("ingest.flushes") >= 1, "no pending flush fired");
    assert!(report.counter("ingest.coined") >= 1, "flush coined nothing");
    assert_eq!(report.counter("ingest.replays"), 0);
    let paths = report.span_paths();
    for expected in [
        "ingest",
        "ingest > batch[0]",
        "ingest > batch[0] > classify",
        "ingest > batch[0] > assign",
        "ingest > batch[0] > index",
        "ingest > batch[1] > resummarize",
        "ingest > batch[2]",
        "qa > question[0]",
    ] {
        assert!(
            paths.iter().any(|p| p == expected),
            "missing span path {expected:?} in {paths:?}"
        );
    }
}

#[test]
fn from_frame_session_rejects_ingest() {
    let _g = GLOBAL_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    use allhands::dataframe::{Column, DataFrame};
    let frame = DataFrame::new(vec![
        Column::from_strs("text", &["app crashes daily", "love the update"]),
        Column::from_f64s("sentiment", &[-0.8, 0.9]),
        Column::from_str_lists("topics", vec![vec!["crash".into()], vec!["praise".into()]]),
    ])
    .unwrap();
    let mut ah = AllHands::from_frame(ModelTier::Gpt4, frame, AllHandsConfig::default());
    let err = ah.ingest(&["new feedback".to_string()]).unwrap_err();
    assert!(err.to_string().contains("from_frame"), "unexpected error: {err}");
    assert!(ah.search_similar("anything", 3).is_err());
    assert!(ah.retract(0).is_err());
}

#[test]
fn search_similar_and_retract_round_trip() {
    let _g = GLOBAL_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let (texts, labeled, predefined) = corpus();
    let (mut ah, _frame) = AllHands::builder(ModelTier::Gpt4)
        .config(ingest_tuned(AllHandsConfig::default()))
        .analyze(&texts, &labeled, &predefined)
        .unwrap();
    for batch in batches() {
        ah.ingest(&batch).unwrap();
    }
    let hits = ah.search_similar("battery drains fast", 5).unwrap();
    assert!(!hits.is_empty());
    // The battery batch occupies rows 38..44; its docs must dominate the
    // top of the result list.
    let battery_rows = 38u64..44;
    assert!(
        battery_rows.contains(&hits[0].0),
        "top hit {:?} is not a battery row",
        hits[0]
    );
    let (top, _score) = hits[0];
    assert!(ah.retract(top).unwrap(), "retract of a present row returned false");
    assert!(!ah.retract(top).unwrap(), "second retract of the same row returned true");
    let after = ah.search_similar("battery drains fast", 5).unwrap();
    assert!(
        after.iter().all(|(id, _)| *id != top),
        "retracted row {top} still surfaces: {after:?}"
    );
}

#[test]
fn ingest_report_agent_and_clones_share_column_storage() {
    let _g = GLOBAL_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let (texts, labeled, predefined) = corpus();
    let (mut ah, _frame) = AllHands::builder(ModelTier::Gpt4)
        .config(ingest_tuned(AllHandsConfig::default()))
        .analyze(&texts, &labeled, &predefined)
        .unwrap();
    // The themed batches flush, so the topics column is replaced as well
    // as appended to.
    for batch in batches() {
        let report = ah.ingest(&batch).unwrap();
        let copy = report.frame.clone();
        let Some(allhands::query::RtValue::Frame(feedback)) =
            ah.agent_mut().session_mut().get("feedback")
        else {
            panic!("the agent binds no feedback frame");
        };
        for col in report.frame.columns() {
            for other in [feedback, &copy] {
                let shared = other.column(col.name()).unwrap();
                assert!(
                    std::ptr::eq(col.data(), shared.data()),
                    "batch {}: column {} is a copy, not shared",
                    report.batch,
                    col.name()
                );
            }
        }
    }
}
