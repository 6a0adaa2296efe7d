//! The stateful session kernel (the paper's Jupyter-based Code Executor,
//! Sec. 3.4.3).
//!
//! A [`Session`] executes code *cells*. Bindings persist across cells so
//! follow-up questions can reference earlier results; each cell returns a
//! [`CellResult`] carrying the executor's three feedback channels from the
//! paper — logs, outputs, artifacts — plus the error (if any) that the
//! agent's self-reflection loop consumes.

use crate::figure::FigureSpec;
use crate::interp::{Interpreter, RtValue};
use crate::parser::parse_program;
use allhands_dataframe::DataFrame;

/// Sandbox limits for a session.
#[derive(Debug, Clone, Copy)]
pub struct SessionLimits {
    /// Total expression-evaluation steps allowed per cell.
    pub step_budget: u64,
    /// Maximum rows any produced frame may have.
    pub max_rows: usize,
    /// Wall-clock limit per cell (`None` = unlimited). Checked periodically
    /// during evaluation; exceeding it fails the cell with an error — it
    /// never panics — so the agent's reflection loop sees it like any other
    /// executor failure.
    pub max_cell_duration: Option<std::time::Duration>,
}

impl Default for SessionLimits {
    fn default() -> Self {
        SessionLimits { step_budget: 50_000_000, max_rows: 5_000_000, max_cell_duration: None }
    }
}

/// The result of executing one cell.
#[derive(Debug, Default)]
pub struct CellResult {
    /// Values passed to `show(...)` — the cell's outputs.
    pub shown: Vec<RtValue>,
    /// Messages passed to `log(...)`.
    pub logs: Vec<String>,
    /// Error message, if the cell failed to parse or execute.
    pub error: Option<String>,
}

impl CellResult {
    /// Figure artifacts among the shown outputs.
    pub fn figures(&self) -> Vec<&FigureSpec> {
        self.shown
            .iter()
            .filter_map(|v| match v {
                RtValue::Figure(f) => Some(f),
                _ => None,
            })
            .collect()
    }

    /// Did the cell succeed?
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }
}

/// A stateful execution session.
pub struct Session {
    interp: Interpreter,
    limits: SessionLimits,
}

impl Session {
    /// Create a session with the given limits.
    pub fn new(limits: SessionLimits) -> Self {
        Session {
            interp: Interpreter::new(limits.step_budget, limits.max_rows),
            limits,
        }
    }

    /// Bind a dataframe (e.g. the structured feedback table as `feedback`).
    pub fn bind_frame(&mut self, name: &str, frame: DataFrame) {
        self.interp.bind(name, RtValue::Frame(frame));
    }

    /// Bind an arbitrary value.
    pub fn bind(&mut self, name: &str, value: RtValue) {
        self.interp.bind(name, value);
    }

    /// Look up a binding (used by tests and the agent's summarizer).
    pub fn get(&self, name: &str) -> Option<&RtValue> {
        self.interp.get(name)
    }

    /// Register a custom plugin, mirroring the paper's self-defined
    /// feedback-analysis plugins.
    pub fn register_plugin(&mut self, name: &str, f: crate::plugins::PluginFn) {
        self.interp.register_plugin(name, f);
    }

    /// Override the query execution engine (defaults to the vectorized
    /// planner; `RowWise` selects the row-wise reference engine).
    pub fn set_engine(&mut self, engine: crate::interp::QueryEngine) {
        self.interp.set_engine(engine);
    }

    /// The active query execution engine.
    pub fn engine(&self) -> crate::interp::QueryEngine {
        self.interp.engine()
    }

    /// Route the `query.exec.*` volatile counters into an obs recorder.
    pub fn set_recorder(&mut self, recorder: allhands_obs::Recorder) {
        self.interp.set_recorder(recorder);
    }

    /// Execute one cell. Never panics: all failures land in
    /// [`CellResult::error`].
    pub fn execute(&mut self, source: &str) -> CellResult {
        let program = match parse_program(source) {
            Ok(p) => p,
            Err(e) => {
                return CellResult { error: Some(format!("syntax error: {e}")), ..Default::default() }
            }
        };
        // Refresh the per-cell budgets (bindings persist, budgets reset).
        self.interp.reset_budget(self.limits.step_budget);
        self.interp.start_cell_clock(self.limits.max_cell_duration);
        let error = self.interp.run(&program).err().map(|e| e.to_string());
        let effects = self.interp.take_effects();
        CellResult { shown: effects.shown, logs: effects.logs, error }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use allhands_dataframe::Column;

    fn session() -> Session {
        let mut s = Session::new(SessionLimits::default());
        s.bind_frame(
            "feedback",
            DataFrame::new(vec![
                Column::from_strs("label", &["bug", "praise", "bug"]),
                Column::from_f64s("sentiment", &[-0.5, 0.9, -0.2]),
            ])
            .unwrap(),
        );
        s
    }

    #[test]
    fn cell_outputs_and_history() {
        let mut s = session();
        let r = s.execute(r#"show(feedback.count()); log("done")"#);
        assert!(r.ok());
        assert_eq!(r.shown.len(), 1);
        assert_eq!(r.logs, vec!["done"]);
    }

    #[test]
    fn syntax_errors_reported() {
        let mut s = session();
        let r = s.execute("let = broken");
        assert!(!r.ok());
        assert!(r.error.unwrap().contains("syntax error"));
    }

    #[test]
    fn budget_resets_between_cells() {
        let mut s = Session::new(SessionLimits {
            step_budget: 2_000,
            max_rows: 1_000,
            ..SessionLimits::default()
        });
        s.bind_frame(
            "feedback",
            DataFrame::new(vec![Column::from_i64s("x", &[1, 2, 3])]).unwrap(),
        );
        for _ in 0..5 {
            let r = s.execute("show(feedback.count())");
            assert!(r.ok(), "{:?}", r.error);
        }
    }

    #[test]
    fn wall_clock_budget_errors_instead_of_panicking() {
        // A zero wall-clock budget must fail the cell on its first check —
        // as a reported error, never a panic — and leave the session usable.
        let mut s = Session::new(SessionLimits {
            max_cell_duration: Some(std::time::Duration::ZERO),
            ..SessionLimits::default()
        });
        s.bind_frame(
            "feedback",
            DataFrame::new(vec![Column::from_i64s("x", &[1, 2, 3])]).unwrap(),
        );
        let r = s.execute("show(feedback.count())");
        let err = r.error.expect("zero wall-clock budget must trip");
        assert!(err.contains("cell wall-clock"), "{err}");
        // Disarming the clock restores normal execution in the same session.
        s.limits.max_cell_duration = None;
        let r = s.execute("show(feedback.count())");
        assert!(r.ok(), "{:?}", r.error);
    }

    #[test]
    fn generous_wall_clock_budget_is_inert() {
        let mut s = Session::new(SessionLimits {
            max_cell_duration: Some(std::time::Duration::from_secs(3600)),
            ..SessionLimits::default()
        });
        s.bind_frame(
            "feedback",
            DataFrame::new(vec![Column::from_i64s("x", &[1, 2, 3])]).unwrap(),
        );
        let r = s.execute("show(feedback.count())");
        assert!(r.ok(), "{:?}", r.error);
    }

    #[test]
    fn figures_extracted() {
        let mut s = session();
        let r = s.execute(
            r#"show(bar_chart(feedback.value_counts("label"), "label", "count", "labels"))"#,
        );
        assert!(r.ok(), "{:?}", r.error);
        assert_eq!(r.figures().len(), 1);
    }

    #[test]
    fn failed_cell_keeps_session_usable() {
        let mut s = session();
        let r1 = s.execute("show(feedback.bogus())");
        assert!(!r1.ok());
        let r2 = s.execute("show(feedback.count())");
        assert!(r2.ok());
    }
}
