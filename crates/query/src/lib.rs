//! AQL — the Analysis Query Language executed by the AllHands code executor.
//!
//! The paper's QA agent generates *Python* and runs it in a Jupyter kernel
//! (Sec. 3.4.3). In this reproduction the generated language is AQL: a
//! small, deterministic analysis language over the [`allhands_dataframe`]
//! engine. The executor semantics the paper relies on are all here:
//!
//! - a **stateful session kernel** ([`Session`]): bindings persist across
//!   cells, so follow-up questions build on earlier results;
//! - **rich results**: each cell returns logs, shown outputs (scalars,
//!   tables), and figure artifacts;
//! - **errors as data**: failed cells return the error message, which the
//!   agent's self-reflection loop feeds back into code regeneration;
//! - a **plugin registry**: native analysis functions (word clouds, issue
//!   rivers, anomaly detection, …) callable from generated code;
//! - **sandboxing**: step and row budgets bound runaway programs; the
//!   language has no I/O primitives at all.
//!
//! # Language sketch
//!
//! ```text
//! let wa = feedback.filter(contains(text, "WhatsApp"));
//! let g = wa.derive("weekend", is_weekend(timestamp))
//!           .group_by("weekend", mean("sentiment"), count());
//! show(g);
//! show(bar_chart(g, "weekend", "sentiment_mean", "Sentiment by day type"))
//! ```
//!
//! Statements are separated by `;` (a trailing `;` is optional). `let`
//! binds; bare expressions evaluate for effect. Inside `filter`/`derive`
//! expressions, identifiers resolve to the current row's columns first and
//! then to session bindings.

pub mod ast;
pub mod error;
mod exec;
pub mod figure;
pub mod interp;
pub mod lexer;
pub mod parser;
mod plan;
pub mod plugins;
mod rowfns;
pub mod session;

pub use ast::{BinOp, Expr, Program, Stmt, UnOp};
pub use error::QueryError;
pub use figure::{FigureKind, FigureSpec, Series};
pub use interp::{Interpreter, QueryEngine, RtValue};
pub use lexer::{Lexer, Token, TokenKind};
pub use parser::parse_program;
pub use session::{CellResult, Session, SessionLimits};

/// Parse and pretty-check a program without executing it (used by tests and
/// the code generator's syntax validation).
pub fn check_syntax(source: &str) -> Result<Program, QueryError> {
    parse_program(source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use allhands_dataframe::{Column, DataFrame};

    fn demo_frame() -> DataFrame {
        DataFrame::new(vec![
            Column::from_strs("product", &["A", "B", "A"]),
            Column::from_f64s("sentiment", &[0.5, -0.5, 1.0]),
        ])
        .unwrap()
    }

    #[test]
    fn end_to_end_smoke() {
        let mut session = Session::new(SessionLimits::default());
        session.bind_frame("feedback", demo_frame());
        let result = session.execute(
            r#"let a = feedback.filter(product == "A");
show(a.mean("sentiment"))"#,
        );
        assert!(result.error.is_none(), "{:?}", result.error);
        assert_eq!(result.shown.len(), 1);
        match &result.shown[0] {
            RtValue::Scalar(v) => assert_eq!(v.as_f64(), Some(0.75)),
            other => panic!("expected scalar, got {other:?}"),
        }
    }

    #[test]
    fn state_persists_across_cells() {
        let mut session = Session::new(SessionLimits::default());
        session.bind_frame("feedback", demo_frame());
        let r1 = session.execute("let n = feedback.count()");
        assert!(r1.error.is_none());
        let r2 = session.execute("show(n + 1)");
        assert!(r2.error.is_none());
        match &r2.shown[0] {
            RtValue::Scalar(v) => assert_eq!(v.as_f64(), Some(4.0)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors_are_values_not_panics() {
        let mut session = Session::new(SessionLimits::default());
        session.bind_frame("feedback", demo_frame());
        let r = session.execute("show(feedback.mean(\"no_such_column\"))");
        let err = r.error.expect("should fail");
        assert!(err.contains("no_such_column"), "unhelpful error: {err}");
    }
}
