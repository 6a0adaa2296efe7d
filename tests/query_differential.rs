//! Differential tests between the two AQL execution engines.
//!
//! The vectorized planner (`QueryEngine::Vectorized`, the default) and the
//! row-wise tree walker (`QueryEngine::RowWise`, its fallback) are
//! contractually byte-identical: same shown values, same logs, same error
//! strings. This suite checks that contract three ways — on every reference
//! program of the 90-question benchmark (plus one numeric chain over a
//! generated frame), on randomized frames × randomized method
//! chains (with join keys straddling 2^53 and ±0.0, the historical
//! `join_key` collision cases), and on targeted optimizer, fallback and
//! step-budget cases.

use allhands::dataframe::{Column, DataFrame};
use allhands::datasets::{dataset_frame, generate, generate_n, questions_for, DatasetKind};
use allhands::obs::Recorder;
use allhands::query::{QueryEngine, Session, SessionLimits};
use proptest::prelude::*;

/// Execute `src` under `engine` and return a full observable transcript:
/// JSON of every shown value, the logs, and the error (if any).
fn run_engine(
    frames: &[(&str, &DataFrame)],
    src: &str,
    engine: QueryEngine,
) -> (Vec<String>, Vec<String>, Option<String>) {
    let mut session = Session::new(SessionLimits::default());
    session.set_engine(engine);
    for (name, frame) in frames {
        session.bind_frame(name, (*frame).clone());
    }
    let result = session.execute(src);
    let shown = result
        .shown
        .iter()
        .map(|v| serde_json::to_string(v).expect("serialize shown value"))
        .collect();
    (shown, result.logs, result.error)
}

/// Assert both engines produce identical transcripts for `src`.
fn assert_identical(frames: &[(&str, &DataFrame)], src: &str) {
    let (vs, vl, ve) = run_engine(frames, src, QueryEngine::Vectorized);
    let (rs, rl, re) = run_engine(frames, src, QueryEngine::RowWise);
    assert_eq!(ve, re, "error divergence on:\n{src}");
    assert_eq!(vl, rl, "log divergence on:\n{src}");
    assert_eq!(vs, rs, "shown-value divergence on:\n{src}");
}

// ---- the 90-question benchmark ---------------------------------------------

fn diff_all(kind: DatasetKind) {
    let records = generate(kind, 42);
    let frame = dataset_frame(kind, &records);
    for q in questions_for(kind) {
        assert_identical(&[("feedback", &frame)], q.reference_aql);
    }
}

/// The canonical generated-program shape: the derive and filter hit the
/// typed numeric batch kernels, projection pruning drops the text column
/// before any rows materialize, and the sort + head pair fuses into top-k.
const NUMERIC_CHAIN: &str = r#"show(feedback.derive("s2", sentiment * 2.0 + text_len * 0.5 - 1.0).filter(s2 > 50.0 && sentiment >= -1.0).group_by("label", mean("s2"), count()).sort("count", "desc").head(5))"#;

/// A 2,000-row generated GoogleStoreApp frame for [`NUMERIC_CHAIN`].
fn numeric_chain_frame() -> DataFrame {
    let kind = DatasetKind::GoogleStoreApp;
    dataset_frame(kind, &generate_n(kind, 2_000, 42))
}

#[test]
fn google_references_identical_across_engines() {
    diff_all(DatasetKind::GoogleStoreApp);
    assert_identical(&[("feedback", &numeric_chain_frame())], NUMERIC_CHAIN);
}

#[test]
fn forum_references_identical_across_engines() {
    diff_all(DatasetKind::ForumPost);
}

#[test]
fn msearch_references_identical_across_engines() {
    diff_all(DatasetKind::MSearch);
}

// ---- targeted cases --------------------------------------------------------

/// Left frame: Int keys straddling 2^53 plus zero; Float metric with ±0.0.
fn tricky_left() -> DataFrame {
    DataFrame::new(vec![
        Column::new(
            "v",
            allhands::dataframe::ColumnData::Int(vec![
                Some(9007199254740992),
                Some(9007199254740993),
                Some(0),
                Some(-9007199254740993),
                None,
                Some(7),
            ]),
        ),
        Column::new(
            "f",
            allhands::dataframe::ColumnData::Float(vec![
                Some(0.0),
                Some(-0.0),
                Some(1.5),
                None,
                Some(-2.0),
                Some(9007199254740993.0),
            ]),
        ),
        Column::from_strs("k", &["a", "b", "a", "c", "b", "a"]),
    ])
    .unwrap()
}

/// Right frame keyed by floats that collide with the left's Int keys only
/// under correct unification (integral floats, -0.0, beyond-2^53 values).
fn tricky_right() -> DataFrame {
    DataFrame::new(vec![
        Column::new(
            "v",
            allhands::dataframe::ColumnData::Float(vec![
                Some(9007199254740992.0),
                Some(-0.0),
                Some(0.0),
                Some(7.0),
                None,
            ]),
        ),
        Column::from_strs("tag", &["big", "negzero", "zero", "seven", "none"]),
    ])
    .unwrap()
}

#[test]
fn join_keys_straddling_2_pow_53_and_signed_zero_are_identical() {
    let left = tricky_left();
    let right = tricky_right();
    let frames: &[(&str, &DataFrame)] = &[("feedback", &left), ("right", &right)];
    for src in [
        r#"show(feedback.join(right, "v", "inner"))"#,
        r#"show(feedback.join(right, "v", "left"))"#,
        r#"show(feedback.join(right, "v", "inner").filter(k == "a"))"#,
        r#"show(feedback.filter(f == 0.0))"#,
        r#"show(feedback.filter(f == -0.0))"#,
        r#"show(feedback.filter(v == 9007199254740993))"#,
        r#"show(feedback.sort("f").head(3))"#,
        r#"show(feedback.sort("f", "desc").head(4))"#,
    ] {
        assert_identical(frames, src);
    }
}

#[test]
fn fallback_cases_are_identical() {
    let left = tricky_left();
    let frames: &[(&str, &DataFrame)] = &[("feedback", &left)];
    for src in [
        // Division by zero inside a filter: vectorized attempt fails, the
        // row-wise fallback supplies the authoritative error.
        r#"show(feedback.filter(1 / f > 0))"#,
        // derive + filter: the derive errors on a row the filter would drop.
        r#"show(feedback.derive("d", 1 / (v + 1)).filter(v != 0))"#,
        // Unknown column errors identically.
        r#"show(feedback.filter(nope > 1))"#,
        // Non-lowerable tail (plugin/scalar terminal) after a lowered run.
        r#"show(feedback.filter(v > 0).count())"#,
        // Mixed-type derive errors identically.
        r#"show(feedback.derive("d", coalesce(f, "zero")))"#,
    ] {
        assert_identical(frames, src);
    }
}

#[test]
fn step_budget_exhaustion_identical_across_engines() {
    // Near-exhaustion budgets: the vectorized bulk charge may trip at a
    // different point, but the fallback restores the snapshot and re-runs
    // row-wise, so the user-visible outcome must match the row-wise engine
    // exactly.
    let left = tricky_left();
    let src = r#"show(feedback.filter(v > 0 && f >= 0.0).sort("f").head(2))"#;
    for budget in [1, 5, 10, 50, 1_000] {
        let limits = SessionLimits { step_budget: budget, ..SessionLimits::default() };
        let mut vec_s = Session::new(limits);
        vec_s.set_engine(QueryEngine::Vectorized);
        vec_s.bind_frame("feedback", left.clone());
        let v = vec_s.execute(src);
        let mut row_s = Session::new(limits);
        row_s.set_engine(QueryEngine::RowWise);
        row_s.bind_frame("feedback", left.clone());
        let r = row_s.execute(src);
        assert_eq!(v.error, r.error, "budget {budget}");
        assert_eq!(v.shown.len(), r.shown.len(), "budget {budget}");
    }
}

/// Execute `src` `times` times on one vectorized session over `frame` and
/// return its `query.exec.{vectorized,fallback}` counts.
fn exec_counts(frame: &DataFrame, src: &str, times: usize) -> (u64, u64) {
    let rec = Recorder::new();
    let mut session = Session::new(SessionLimits::default());
    session.set_engine(QueryEngine::Vectorized);
    session.set_recorder(rec.clone());
    session.bind_frame("feedback", frame.clone());
    for _ in 0..times {
        let r = session.execute(src);
        assert!(r.error.is_none(), "{:?}", r.error);
    }
    let report = rec.report();
    let count = |key: &str| report.volatile_counters.get(key).copied().unwrap_or(0);
    (count("query.exec.vectorized"), count("query.exec.fallback"))
}

#[test]
fn repeated_chains_run_vectorized_without_fallback() {
    let left = tricky_left();
    let src = r#"show(feedback.filter(v > 0).group_by("k", count()).sort("count", "desc").head(2))"#;
    assert_eq!(exec_counts(&left, src, 3), (3, 0));
    assert_eq!(exec_counts(&left, r#"show(feedback.filter(v > 1).head(1))"#, 1), (1, 0));
    assert_eq!(exec_counts(&numeric_chain_frame(), NUMERIC_CHAIN, 5), (5, 0));
}

#[test]
fn sort_then_filter_identical_across_engines() {
    let left = tricky_left();
    let src = r#"show(feedback.sort("f").filter(v == 7))"#;
    assert_identical(&[("feedback", &left)], src);
    assert_eq!(exec_counts(&left, src, 1), (1, 0));
}

#[test]
fn column_on_column_numeric_ops_identical() {
    // The typed batch kernels accept columns on BOTH sides; the tricky
    // frame puts Int-vs-Float pairs beyond 2^53 (where i64 compares
    // exactly but f64 casts collide), ±0.0, and nulls on every path.
    let left = tricky_left();
    let frames: &[(&str, &DataFrame)] = &[("feedback", &left)];
    for src in [
        r#"show(feedback.filter(v > f))"#,
        r#"show(feedback.filter(v == f))"#,
        r#"show(feedback.filter(v != f))"#,
        r#"show(feedback.filter(v <= f))"#,
        // Null == null is TRUE under loose_eq; null <= null is FALSE.
        r#"show(feedback.filter(v == v))"#,
        r#"show(feedback.filter(v <= v))"#,
        r#"show(feedback.derive("s", v + f))"#,
        r#"show(feedback.derive("s", v * v))"#,
        r#"show(feedback.derive("s", f - v))"#,
        r#"show(feedback.derive("s", 2.0 * f + 1))"#,
        r#"show(feedback.derive("s", v / 4))"#,
        // Int*Int overflow beyond i64 spills to f64 row-wise; the typed
        // batch must abandon and reproduce that via the generic loop.
        r#"show(feedback.derive("s", v * 9007199254740993))"#,
    ] {
        assert_identical(frames, src);
    }
}

// ---- randomized differential ----------------------------------------------

proptest! {
    #[test]
    fn random_chains_identical_across_engines(
        ints in proptest::collection::vec(
            prop::sample::select(vec![
                None,
                Some(-3i64),
                Some(0),
                Some(7),
                Some(19),
                Some(9007199254740992),
                Some(9007199254740993),
                Some(-9007199254740993),
            ]),
            6,
        ),
        floats in proptest::collection::vec(
            prop::sample::select(vec![
                None,
                Some(0.0f64),
                Some(-0.0f64),
                Some(1.5),
                Some(-2.25),
                Some(9007199254740992.0),
            ]),
            6,
        ),
        keys in proptest::collection::vec("[abc]", 6),
        steps in proptest::collection::vec(0usize..15, 1..5),
        n in 0i64..5,
    ) {
        let left = DataFrame::new(vec![
            Column::new("v", allhands::dataframe::ColumnData::Int(ints)),
            Column::new("f", allhands::dataframe::ColumnData::Float(floats)),
            Column::from_strs("k", &keys.iter().map(String::as_str).collect::<Vec<_>>()),
        ]).unwrap();
        let right = tricky_right();
        let mut chain = String::from("feedback");
        for s in &steps {
            let call = match s {
                0 => format!(".filter(v > {n})"),
                1 => ".filter(f >= 0.0)".to_string(),
                2 => ".filter(k == \"a\" || v < 2)".to_string(),
                3 => ".derive(\"d\", v * 2)".to_string(),
                4 => ".derive(\"d\", coalesce(f, 0))".to_string(),
                5 => ".group_by(\"k\", count())".to_string(),
                6 => ".group_by(\"k\", mean(\"v\"), count())".to_string(),
                7 => ".sort(\"v\", \"desc\")".to_string(),
                8 => format!(".head({n})"),
                9 => ".value_counts(\"k\")".to_string(),
                10 => ".join(right, \"v\", \"inner\")".to_string(),
                11 => ".join(right, \"v\", \"left\")".to_string(),
                // Column-on-column comparisons/arithmetic: Int vs Float
                // sides straddling 2^53, null == null (true!), null < x.
                12 => ".filter(v > f)".to_string(),
                13 => ".filter(v == f)".to_string(),
                _ => ".derive(\"s\", v + f * 2.0)".to_string(),
            };
            chain.push_str(&call);
        }
        let src = format!("show({chain})");
        let frames: &[(&str, &DataFrame)] = &[("feedback", &left), ("right", &right)];
        let (vs, vl, ve) = run_engine(frames, &src, QueryEngine::Vectorized);
        let (rs, rl, re) = run_engine(frames, &src, QueryEngine::RowWise);
        prop_assert_eq!(ve, re, "error divergence on:\n{}", src);
        prop_assert_eq!(vl, rl, "log divergence on:\n{}", src);
        prop_assert_eq!(vs, rs, "shown divergence on:\n{}", src);
    }
}
