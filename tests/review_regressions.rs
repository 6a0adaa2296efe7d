//! Regression tests for the defects found during code review. Each test
//! pins the fixed behavior so the bug cannot silently return.

use allhands::dataframe::{Column, ColumnData, DataFrame, JoinKind, Value};
use allhands::llm::codegen::{build_program, SchemaInfo};
use allhands::query::{Session, SessionLimits};
use allhands::vectordb::{IvfIndex, Record};
use std::collections::HashMap;

fn schema() -> SchemaInfo {
    let mut s = SchemaInfo {
        columns: vec![
            ("text".into(), "Str".into()),
            ("sentiment".into(), "Float".into()),
            ("topics".into(), "StrList".into()),
            ("timestamp".into(), "DateTime".into()),
            ("product".into(), "Str".into()),
        ],
        sample_values: HashMap::new(),
    };
    s.sample_values
        .insert("topics".into(), vec!["bug".into(), "feature request".into()]);
    s.sample_values
        .insert("product".into(), vec!["WhatsApp".into(), "Windows".into()]);
    s
}

/// Contractions ("don't") must not open a quoted phrase.
#[test]
fn codegen_contractions_are_not_quotes() {
    let p = build_program(
        "How many tweets don't mention 'bug' at all?",
        &schema(),
    )
    .unwrap();
    // The real quoted entity must survive; the bogus "t mention " must not.
    assert!(!p.contains("t mention"), "{p}");
    assert!(p.contains("bug"), "{p}");
}

/// The modal verb "may" must not become a month-5 filter.
#[test]
fn codegen_modal_may_is_not_a_month() {
    let p = build_program("What topics may be related to crashes?", &schema()).unwrap();
    assert!(!p.contains("month(timestamp) == 5"), "{p}");
    // …but a real month mention still filters.
    let p = build_program("Which topic appears most frequently in May?", &schema()).unwrap();
    assert!(p.contains("month(timestamp) == 5"), "{p}");
    // "maybe" must not fire either.
    let p = build_program("Which topic maybe appears most frequently?", &schema()).unwrap();
    assert!(!p.contains("month(timestamp)"), "{p}");
}

/// "laptop 15" must not be parsed as top-15.
#[test]
fn codegen_top_is_word_anchored() {
    let p = build_program(
        "How many users mention laptop 15 issues in the dataset?",
        &schema(),
    )
    .unwrap();
    assert!(!p.contains("head(15)"), "{p}");
}

/// A single-month question containing "increase" keeps its month filter.
#[test]
fn codegen_single_month_with_increase_keeps_filter() {
    let p = build_program(
        "How many tweets in April mention an increase in crashes?",
        &schema(),
    )
    .unwrap();
    assert!(p.contains("month(timestamp) == 4"), "{p}");
}

/// concat cannot blow past the row budget exponentially.
#[test]
fn concat_respects_row_budget() {
    let mut s = Session::new(SessionLimits {
        step_budget: 1_000_000,
        max_rows: 1_000,
        ..SessionLimits::default()
    });
    s.bind_frame(
        "feedback",
        DataFrame::new(vec![Column::from_i64s("x", &(0..400).collect::<Vec<_>>())]).unwrap(),
    );
    let r = s.execute(
        "let a = feedback.concat(feedback);\nlet b = a.concat(a);\nshow(b.count())",
    );
    let err = r.error.expect("row budget must trip");
    assert!(err.contains("row budget"), "{err}");
}

/// Integer overflow spills to float instead of panicking.
#[test]
fn int_overflow_spills_to_float() {
    let mut s = Session::new(SessionLimits::default());
    let r = s.execute("show(8000000000000000 * 8000000000000000)");
    assert!(r.error.is_none(), "{:?}", r.error);
    match &r.shown[0] {
        allhands::query::RtValue::Scalar(Value::Float(f)) => {
            assert!(*f > 6.0e31 && *f < 7.0e31, "{f}")
        }
        other => panic!("expected float spill, got {other:?}"),
    }
}

/// Numeric aggregations over string columns are type errors, not zeros.
#[test]
fn sum_over_strings_is_a_type_error() {
    let mut s = Session::new(SessionLimits::default());
    s.bind_frame(
        "feedback",
        DataFrame::new(vec![Column::from_strs("product", &["a", "b"])]).unwrap(),
    );
    let r = s.execute("show(feedback.sum(\"product\"))");
    assert!(r.error.unwrap().contains("numeric column"));
}

/// Exponent literals lex as one number.
#[test]
fn lexer_supports_exponents() {
    let mut s = Session::new(SessionLimits::default());
    let r = s.execute("show(2.5e3 + 1e-1)");
    assert!(r.error.is_none(), "{:?}", r.error);
    match &r.shown[0] {
        allhands::query::RtValue::Scalar(v) => {
            assert!((v.as_f64().unwrap() - 2500.1).abs() < 1e-9)
        }
        other => panic!("{other:?}"),
    }
}

/// with_column keeps the replaced column's position (concat depends on it).
#[test]
fn with_column_preserves_order() {
    let df = DataFrame::new(vec![
        Column::from_i64s("a", &[1]),
        Column::from_i64s("b", &[2]),
        Column::from_i64s("c", &[3]),
    ])
    .unwrap();
    let replaced = df.with_column(Column::from_i64s("b", &[9])).unwrap();
    assert_eq!(replaced.column_names(), vec!["a", "b", "c"]);
    // And concat with the original still works.
    assert!(df.concat(&replaced).is_ok());
}

/// Int and Float join keys unify numerically (as documented).
#[test]
fn join_unifies_int_and_float_keys() {
    let left = DataFrame::new(vec![Column::from_i64s("k", &[1, 2])]).unwrap();
    let right = DataFrame::new(vec![
        Column::from_f64s("k", &[1.0, 3.0]),
        Column::from_strs("v", &["one", "three"]),
    ])
    .unwrap();
    let j = left.join(&right, "k", JoinKind::Inner).unwrap();
    assert_eq!(j.n_rows(), 1);
    assert_eq!(j.cell(0, "v").unwrap(), Value::str("one"));
}

/// value_counts on a column named "count" works instead of erroring.
#[test]
fn value_counts_on_count_column() {
    let df = DataFrame::new(vec![Column::from_i64s("count", &[1, 1, 2])]).unwrap();
    let vc = df.value_counts("count").unwrap();
    assert_eq!(vc.n_rows(), 2);
    assert!(vc.has_column("count_value"));
    assert_eq!(vc.cell(0, "count").unwrap(), Value::Int(2));
}

/// crosstab survives cell values that collide with the row-key name.
#[test]
fn crosstab_handles_name_collisions() {
    let df = DataFrame::new(vec![
        Column::from_strs("label", &["x", "x", "y"]),
        Column::from_strs("product", &["label", "p", "label"]),
    ])
    .unwrap();
    let ct = df.crosstab("label", "product").unwrap();
    assert_eq!(ct.n_rows(), 2);
    // The colliding column got suffixed, not rejected.
    assert!(ct.column_names().iter().filter(|n| n.starts_with("label")).count() >= 2);
}

/// IVF upsert with a moved vector is findable near its new location.
#[test]
fn ivf_upsert_reassigns_partition() {
    let mut ivf = IvfIndex::new(2, 1);
    for i in 0..60u64 {
        let v = if i % 2 == 0 {
            allhands::embed::Embedding::new(vec![1.0, 0.0])
        } else {
            allhands::embed::Embedding::new(vec![-1.0, 0.0])
        };
        ivf.insert(Record::new(i, v));
    }
    ivf.train(2);
    // Move record 0 from the +x cluster to the -x cluster.
    ivf.insert(Record::new(0, allhands::embed::Embedding::new(vec![-0.99, 0.01])));
    assert_eq!(ivf.len(), 60);
    let hits = ivf.search(&allhands::embed::Embedding::new(vec![-1.0, 0.0]), 60);
    assert!(
        hits.iter().any(|h| h.id == 0),
        "moved record not findable in its new partition"
    );
}

/// Deserializing a ragged frame fails instead of producing a corrupt table.
#[test]
fn frame_deserialize_validates() {
    let ragged = serde_json::json!({
        "columns": [
            {"name": "a", "data": {"Int": [1, 2]}},
            {"name": "b", "data": {"Int": [1]}},
        ]
    });
    let parsed: Result<DataFrame, _> = serde_json::from_value(ragged);
    assert!(parsed.is_err(), "ragged frame must not deserialize");
    // A valid frame still round-trips.
    let df = DataFrame::new(vec![Column::new("a", ColumnData::Int(vec![Some(1)]))]).unwrap();
    let json = serde_json::to_string(&df).unwrap();
    let back: DataFrame = serde_json::from_str(&json).unwrap();
    assert_eq!(back, df);
}
