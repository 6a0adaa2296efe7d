//! The AQL interpreter: expression evaluation, frame method dispatch, and
//! the builtin/row function set.

use crate::ast::{BinOp, Expr, Program, Stmt, UnOp};
use crate::error::QueryError;
use crate::exec;
use crate::figure::FigureSpec;
use crate::plan::{self, PlanOp};
use crate::plugins::PluginRegistry;
use crate::rowfns;
use allhands_dataframe::{
    AggKind, Aggregation, Column, ColumnData, DataFrame, JoinKind, Value,
};
use allhands_obs::Recorder;
use std::collections::HashMap;

/// Which execution strategy frame-method chains use at the top level of a
/// cell. Both engines are contractually byte-identical; `RowWise` is the
/// reference side of the differential test suite and the path the
/// vectorized engine falls back to on any error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryEngine {
    /// Lower method chains to a plan IR, optimize, and run column-batch
    /// kernels; any error falls back to the row-wise path transparently.
    Vectorized,
    /// The original row-at-a-time tree-walking interpreter.
    RowWise,
}

/// A runtime value.
#[derive(Debug, Clone, serde::Serialize)]
pub enum RtValue {
    /// A scalar cell value (numbers, strings, booleans, datetimes, nulls).
    Scalar(Value),
    /// A dataframe.
    Frame(DataFrame),
    /// A figure artifact produced by a plotting plugin.
    Figure(FigureSpec),
    /// A list of scalar values.
    List(Vec<Value>),
}

impl RtValue {
    /// Shorthand for a null scalar.
    pub fn null() -> RtValue {
        RtValue::Scalar(Value::Null)
    }

    /// Human-readable type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            RtValue::Scalar(_) => "scalar",
            RtValue::Frame(_) => "frame",
            RtValue::Figure(_) => "figure",
            RtValue::List(_) => "list",
        }
    }

    /// Unwrap a frame or error.
    pub fn into_frame(self) -> Result<DataFrame, QueryError> {
        match self {
            RtValue::Frame(f) => Ok(f),
            other => Err(QueryError::runtime(format!(
                "expected a frame, got {}",
                other.type_name()
            ))),
        }
    }

    /// Unwrap a scalar or error.
    pub fn into_scalar(self) -> Result<Value, QueryError> {
        match self {
            RtValue::Scalar(v) => Ok(v),
            other => Err(QueryError::runtime(format!(
                "expected a scalar, got {}",
                other.type_name()
            ))),
        }
    }

    /// Render for display in a response.
    pub fn render(&self) -> String {
        match self {
            RtValue::Scalar(v) => v.to_string(),
            RtValue::Frame(f) => f.to_table_string(20),
            RtValue::Figure(fig) => fig.render_ascii(),
            RtValue::List(items) => {
                let parts: Vec<String> = items.iter().map(Value::to_string).collect();
                format!("[{}]", parts.join(", "))
            }
        }
    }
}

/// Execution effects collected while running a program.
#[derive(Debug, Default)]
pub struct Effects {
    /// Values passed to `show(...)`, in order.
    pub shown: Vec<RtValue>,
    /// Messages passed to `log(...)`.
    pub logs: Vec<String>,
}

/// The interpreter. Holds bindings, limits, and the plugin registry.
pub struct Interpreter {
    bindings: HashMap<String, RtValue>,
    plugins: PluginRegistry,
    /// Remaining evaluation steps (sandbox budget).
    steps_left: u64,
    /// Maximum rows any produced frame may have (sandbox budget).
    max_rows: usize,
    /// Per-cell wall-clock limit and its deadline (sandbox budget).
    wall_limit: Option<std::time::Duration>,
    cell_deadline: Option<std::time::Instant>,
    /// Steps taken this cell, for the periodic clock check.
    steps_taken: u64,
    effects: Effects,
    /// Execution strategy for top-level frame-method chains.
    engine: QueryEngine,
    /// Obs sink for `query.exec.*` volatile counters (disabled by default).
    recorder: Recorder,
}

/// Evaluation context: bindings plus an optional row scope.
struct RowCtx<'a> {
    frame: &'a DataFrame,
    row: usize,
}

impl Interpreter {
    /// Create an interpreter with the given sandbox budgets.
    pub fn new(step_budget: u64, max_rows: usize) -> Self {
        Interpreter {
            bindings: HashMap::new(),
            plugins: PluginRegistry::with_builtins(),
            steps_left: step_budget,
            max_rows,
            wall_limit: None,
            cell_deadline: None,
            steps_taken: 0,
            effects: Effects::default(),
            engine: QueryEngine::Vectorized,
            recorder: Recorder::disabled(),
        }
    }

    /// Override the execution engine (the differential tests run both).
    pub fn set_engine(&mut self, engine: QueryEngine) {
        self.engine = engine;
    }

    /// The active execution engine.
    pub fn engine(&self) -> QueryEngine {
        self.engine
    }

    /// Route the `query.exec.*` counters (vectorized runs and row-wise
    /// fallbacks) into an obs recorder. Counters go through the volatile
    /// annex only (no spans): sessions run on serve writer and connection
    /// threads, where the counts need not match between leader and
    /// replayed followers.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Bind a value (e.g. the pre-loaded `feedback` frame).
    pub fn bind(&mut self, name: &str, value: RtValue) {
        self.bindings.insert(name.to_string(), value);
    }

    /// Look up a binding.
    pub fn get(&self, name: &str) -> Option<&RtValue> {
        self.bindings.get(name)
    }

    /// Register an additional plugin function.
    pub fn register_plugin(
        &mut self,
        name: &str,
        f: crate::plugins::PluginFn,
    ) {
        self.plugins.register(name, f);
    }

    /// Run a program; effects (shown values, logs) accumulate and are
    /// drained by the caller via [`Interpreter::take_effects`].
    pub fn run(&mut self, program: &Program) -> Result<(), QueryError> {
        for stmt in &program.statements {
            match stmt {
                Stmt::Let { name, expr, line } => {
                    let value = self
                        .eval(expr, None)
                        .map_err(|e| contextualize(e, *line))?;
                    self.bindings.insert(name.clone(), value);
                }
                Stmt::Expr { expr, line } => {
                    self.eval(expr, None).map_err(|e| contextualize(e, *line))?;
                }
            }
        }
        Ok(())
    }

    /// Take the accumulated effects, resetting them.
    pub fn take_effects(&mut self) -> Effects {
        std::mem::take(&mut self.effects)
    }

    /// Reset the step budget (called per cell by the session kernel).
    pub fn reset_budget(&mut self, steps: u64) {
        self.steps_left = steps;
    }

    /// Arm (or disarm, with `None`) the per-cell wall-clock budget; called
    /// per cell by the session kernel before running.
    pub fn start_cell_clock(&mut self, limit: Option<std::time::Duration>) {
        self.wall_limit = limit;
        self.cell_deadline = limit.map(|d| std::time::Instant::now() + d);
        self.steps_taken = 0;
    }

    fn step(&mut self) -> Result<(), QueryError> {
        if self.steps_left == 0 {
            return Err(QueryError::runtime(
                "step budget exhausted: program too expensive for the sandbox",
            ));
        }
        self.steps_left -= 1;
        // Clock reads are much slower than a decrement, so the wall-clock
        // budget is only checked every 4096 steps (and on the first).
        if self.steps_taken % 4096 == 0 {
            self.check_wall_clock()?;
        }
        self.steps_taken += 1;
        Ok(())
    }

    /// Unconditional wall-clock check. Frame-producing operations
    /// (join/group_by/sort) call this directly: one such call can cost as
    /// much as thousands of interpreter steps, so waiting for the
    /// every-4096-steps check in [`step`](Self::step) would let a cell
    /// overrun its budget by the full cost of an operation and keep running.
    fn check_wall_clock(&self) -> Result<(), QueryError> {
        if let (Some(deadline), Some(limit)) = (self.cell_deadline, self.wall_limit) {
            if std::time::Instant::now() >= deadline {
                return Err(QueryError::runtime(format!(
                    "cell wall-clock budget exhausted (limit {limit:?})"
                )));
            }
        }
        Ok(())
    }

    fn check_rows(&self, frame: &DataFrame) -> Result<(), QueryError> {
        if frame.n_rows() > self.max_rows {
            return Err(QueryError::runtime(format!(
                "row budget exceeded: frame has {} rows (limit {})",
                frame.n_rows(),
                self.max_rows
            )));
        }
        Ok(())
    }

    fn eval(&mut self, expr: &Expr, row: Option<&RowCtx>) -> Result<RtValue, QueryError> {
        self.step()?;
        match expr {
            Expr::Number(n) => Ok(RtValue::Scalar(number_value(*n))),
            Expr::Str(s) => Ok(RtValue::Scalar(Value::Str(s.clone()))),
            Expr::Bool(b) => Ok(RtValue::Scalar(Value::Bool(*b))),
            Expr::List(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.eval(item, row)?.into_scalar()?);
                }
                Ok(RtValue::List(out))
            }
            Expr::Ident(name) => {
                // Row scope first: column of the current row.
                if let Some(ctx) = row {
                    if ctx.frame.has_column(name) {
                        return Ok(RtValue::Scalar(
                            ctx.frame.column(name).expect("checked").get(ctx.row),
                        ));
                    }
                }
                self.bindings.get(name).cloned().ok_or_else(|| {
                    let hint = if row.is_some() {
                        " (not a column of the current frame, nor a binding)"
                    } else {
                        ""
                    };
                    QueryError::runtime(format!("unknown name '{name}'{hint}"))
                })
            }
            Expr::Unary { op, expr } => {
                let v = self.eval(expr, row)?.into_scalar()?;
                Ok(RtValue::Scalar(match op {
                    UnOp::Neg => match v.as_f64() {
                        Some(f) => number_value(-f),
                        None => {
                            return Err(QueryError::runtime(format!("cannot negate {v:?}")))
                        }
                    },
                    UnOp::Not => Value::Bool(!truthy(&v)),
                }))
            }
            Expr::Binary { op, lhs, rhs } => {
                let l = self.eval(lhs, row)?.into_scalar()?;
                // Short-circuit logical ops.
                if *op == BinOp::And && !truthy(&l) {
                    return Ok(RtValue::Scalar(Value::Bool(false)));
                }
                if *op == BinOp::Or && truthy(&l) {
                    return Ok(RtValue::Scalar(Value::Bool(true)));
                }
                let r = self.eval(rhs, row)?.into_scalar()?;
                binary_op(*op, &l, &r).map(RtValue::Scalar)
            }
            Expr::Call { name, args, .. } => self.call_function(name, args, row),
            Expr::Method { recv, name, args, .. } => {
                if row.is_none() && self.engine == QueryEngine::Vectorized {
                    return self.eval_method_chain(expr);
                }
                let receiver = self.eval(recv, row)?;
                self.call_method(receiver, name, args, row)
            }
        }
    }

    // ----- vectorized chain execution --------------------------------------

    /// Evaluate a top-level frame-method chain, lowering maximal runs of
    /// plan-able calls into the vectorized executor and dispatching the
    /// rest through the ordinary row-wise [`call_method`](Self::call_method).
    ///
    /// The byte-identity contract: the vectorized path either fully
    /// succeeds (producing exactly the frame the row-wise path would) or
    /// restores the step budget to its pre-attempt snapshot and re-executes
    /// the run row-wise, whose outcome — value or error — is authoritative.
    /// Lowered constructs are pure (no `show`/`log`/plugins), so the re-run
    /// cannot duplicate effects.
    fn eval_method_chain(&mut self, expr: &Expr) -> Result<RtValue, QueryError> {
        let (base, calls) = plan::flatten_chain(expr);
        // Mirror the row-wise per-node step charges: eval() already charged
        // the outermost method node; the descent would charge one step per
        // remaining node before reaching the base.
        for _ in 1..calls.len() {
            self.step()?;
        }
        let mut current = self.eval(base, None)?;
        let mut i = 0;
        let mut row_wise_rest = false;
        while i < calls.len() {
            if !row_wise_rest {
                if let RtValue::Frame(frame) = &current {
                    let (ops, consumed) = plan::lower_ops(&calls[i..]);
                    if consumed > 0 {
                        let snapshot = (self.steps_left, self.steps_taken);
                        match self.exec_lowered(frame, ops) {
                            Ok(out) => {
                                current = RtValue::Frame(out);
                                i += consumed;
                                continue;
                            }
                            Err(_) => {
                                // Fall back: restore the budget and run the
                                // rest of the chain row-wise so any error
                                // (or success) comes from the reference
                                // engine, byte-for-byte.
                                self.steps_left = snapshot.0;
                                self.steps_taken = snapshot.1;
                                self.recorder.vincr("query.exec.fallback");
                                row_wise_rest = true;
                            }
                        }
                    }
                }
            }
            let call = &calls[i];
            let recv = std::mem::replace(&mut current, RtValue::null());
            current = self.call_method(recv, call.name, call.args, None)?;
            i += 1;
        }
        Ok(current)
    }

    /// Optimize and execute a lowered run against `base`. Any `Err` is a
    /// signal to fall back, never a user-visible error.
    fn exec_lowered(
        &mut self,
        base: &DataFrame,
        ops: Vec<PlanOp>,
    ) -> Result<DataFrame, QueryError> {
        let base_schema: Vec<String> =
            base.columns().iter().map(|c| c.name().to_string()).collect();
        let ops = plan::optimize(ops, &base_schema);
        let mut out: Option<DataFrame> = None;
        for op in &ops {
            let f: &DataFrame = out.as_ref().unwrap_or(base);
            self.charge_steps(op_charge(op, f.n_rows()))?;
            let next = match op {
                PlanOp::Filter { pred } => {
                    let mask = exec::filter_mask(f, pred, &self.bindings)?;
                    f.filter(&mask)?
                }
                PlanOp::Derive { name, expr } => {
                    let col = exec::derive_column(f, name, expr, &self.bindings)?;
                    f.with_column(col)?
                }
                PlanOp::Select { cols } => {
                    let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
                    f.select(&refs)?
                }
                PlanOp::GroupBy { keys, aggs } => {
                    let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
                    let nf = f.group_by(&refs, aggs)?;
                    self.check_wall_clock()?;
                    nf
                }
                PlanOp::Sort { col, ascending } => {
                    let nf = f.sort_by(col, *ascending)?;
                    self.check_wall_clock()?;
                    nf
                }
                PlanOp::TopK { col, ascending, k } => {
                    let nf = f.top_k(col, *ascending, *k)?;
                    self.check_wall_clock()?;
                    nf
                }
                PlanOp::Head { n } => f.head(*n),
                PlanOp::ValueCounts { col } => f.value_counts(col)?,
                PlanOp::Join { right, on, kind } => {
                    let Some(RtValue::Frame(rf)) = self.bindings.get(right) else {
                        return Err(QueryError::runtime("join target is not a frame"));
                    };
                    let nf = f.join(rf, on, *kind)?;
                    self.check_rows(&nf)?;
                    self.check_wall_clock()?;
                    nf
                }
            };
            out = Some(next);
        }
        self.recorder.vincr("query.exec.vectorized");
        Ok(out.unwrap_or_else(|| base.clone()))
    }

    /// Bulk step charge approximating what the row-wise engine would spend
    /// on the same operation (per-row × per-expression-node for filters and
    /// derives). Exact parity is not required — on any error, including
    /// budget exhaustion, the run falls back and the row-wise engine's
    /// step-by-step accounting is authoritative.
    fn charge_steps(&mut self, n: u64) -> Result<(), QueryError> {
        if self.steps_left < n {
            self.steps_left = 0;
            return Err(QueryError::runtime(
                "step budget exhausted: program too expensive for the sandbox",
            ));
        }
        self.steps_left -= n;
        self.steps_taken += n;
        self.check_wall_clock()
    }

    // ----- free functions -------------------------------------------------

    fn call_function(
        &mut self,
        name: &str,
        args: &[Expr],
        row: Option<&RowCtx>,
    ) -> Result<RtValue, QueryError> {
        // Effectful builtins first.
        match name {
            "show" => {
                expect_arity(name, args, 1)?;
                let v = self.eval(&args[0], row)?;
                self.effects.shown.push(v);
                return Ok(RtValue::null());
            }
            "log" => {
                expect_arity(name, args, 1)?;
                let v = self.eval(&args[0], row)?;
                self.effects.logs.push(v.render());
                return Ok(RtValue::null());
            }
            _ => {}
        }

        // Pure scalar/row functions.
        if let Some(result) = self.try_row_function(name, args, row)? {
            return Ok(result);
        }

        // Plugins (figures, analyses).
        if self.plugins.contains(name) {
            let mut values = Vec::with_capacity(args.len());
            for a in args {
                values.push(self.eval(a, row)?);
            }
            return self.plugins.invoke(name, values);
        }

        Err(QueryError::runtime(format!(
            "unknown function '{name}' (available: {})",
            self.plugins.names().join(", ")
        )))
    }

    /// Scalar functions usable both at top level and inside row contexts.
    /// Returns `Ok(None)` if `name` is not one of them.
    fn try_row_function(
        &mut self,
        name: &str,
        args: &[Expr],
        row: Option<&RowCtx>,
    ) -> Result<Option<RtValue>, QueryError> {
        // The value-level semantics live in `crate::rowfns`, shared with the
        // vectorized batch evaluator — see the byte-identity contract there.
        let result = match name {
            "contains" => {
                expect_arity(name, args, 2)?;
                let hay = self.eval_scalar(&args[0], row)?;
                let needle = self.eval_scalar(&args[1], row)?;
                rowfns::contains(&hay, &needle)?
            }
            "starts_with" => {
                expect_arity(name, args, 2)?;
                let hay = self.eval_scalar(&args[0], row)?;
                let needle = self.eval_scalar(&args[1], row)?;
                rowfns::starts_with(&hay, &needle)
            }
            "lower" => {
                expect_arity(name, args, 1)?;
                rowfns::lower(self.eval_scalar(&args[0], row)?)
            }
            "upper" => {
                expect_arity(name, args, 1)?;
                rowfns::upper(self.eval_scalar(&args[0], row)?)
            }
            "length" => {
                expect_arity(name, args, 1)?;
                match self.eval(&args[0], row)? {
                    RtValue::Scalar(v) => rowfns::length_scalar(&v)?,
                    RtValue::List(l) => Value::Int(l.len() as i64),
                    RtValue::Frame(f) => Value::Int(f.n_rows() as i64),
                    other => {
                        return Err(QueryError::runtime(format!(
                            "length() not defined for {}",
                            other.type_name()
                        )))
                    }
                }
            }
            "month" | "year" | "day" | "week" => {
                expect_arity(name, args, 1)?;
                rowfns::datetime_part(name, &self.eval_scalar(&args[0], row)?)?
            }
            "weekday" => {
                expect_arity(name, args, 1)?;
                rowfns::weekday(&self.eval_scalar(&args[0], row)?)?
            }
            "is_weekend" => {
                expect_arity(name, args, 1)?;
                rowfns::is_weekend(&self.eval_scalar(&args[0], row)?)?
            }
            "date" => {
                expect_arity(name, args, 1)?;
                rowfns::date(&self.eval_scalar(&args[0], row)?)?
            }
            "has_topic" => {
                expect_arity(name, args, 2)?;
                let list = self.eval_scalar(&args[0], row)?;
                let item = self.eval_scalar(&args[1], row)?;
                rowfns::has_topic(&list, &item)?
            }
            "in_list" => {
                expect_arity(name, args, 2)?;
                let item = self.eval_scalar(&args[0], row)?;
                let list = match self.eval(&args[1], row)? {
                    RtValue::List(l) => l,
                    RtValue::Scalar(Value::StrList(l)) => {
                        l.into_iter().map(Value::Str).collect()
                    }
                    other => {
                        return Err(QueryError::runtime(format!(
                            "in_list(x, list) expects a list, got {}",
                            other.type_name()
                        )))
                    }
                };
                rowfns::in_list_value(&item, &list)
            }
            "in_list_any" => {
                // Does the StrList cell share any element with the list?
                expect_arity(name, args, 2)?;
                let cell = self.eval_scalar(&args[0], row)?;
                let list = match self.eval(&args[1], row)? {
                    RtValue::List(l) => l,
                    other => {
                        return Err(QueryError::runtime(format!(
                            "in_list_any(topics, list) expects a list, got {}",
                            other.type_name()
                        )))
                    }
                };
                rowfns::in_list_any_value(&cell, &list)
            }
            "is_null" => {
                expect_arity(name, args, 1)?;
                Value::Bool(self.eval_scalar(&args[0], row)?.is_null())
            }
            "coalesce" => {
                expect_arity(name, args, 2)?;
                let v = self.eval_scalar(&args[0], row)?;
                if v.is_null() {
                    self.eval_scalar(&args[1], row)?
                } else {
                    v
                }
            }
            "emoji_count" => {
                expect_arity(name, args, 1)?;
                rowfns::emoji_count(&self.eval_scalar(&args[0], row)?)?
            }
            "has_url" => {
                expect_arity(name, args, 1)?;
                rowfns::has_url(&self.eval_scalar(&args[0], row)?)
            }
            "abs" => {
                expect_arity(name, args, 1)?;
                rowfns::abs_fn(&self.eval_scalar(&args[0], row)?)
            }
            "round" => {
                expect_arity(name, args, 2)?;
                let x = self.eval_scalar(&args[0], row)?;
                let digits = self.eval_scalar(&args[1], row)?;
                rowfns::round_fn(&x, &digits)
            }
            "percent" => {
                expect_arity(name, args, 2)?;
                let num = self.eval_scalar(&args[0], row)?;
                let den = self.eval_scalar(&args[1], row)?;
                rowfns::percent(&num, &den)?
            }
            _ => return Ok(None),
        };
        Ok(Some(RtValue::Scalar(result)))
    }

    fn eval_scalar(&mut self, expr: &Expr, row: Option<&RowCtx>) -> Result<Value, QueryError> {
        self.eval(expr, row)?.into_scalar()
    }

    // ----- methods ---------------------------------------------------------

    fn call_method(
        &mut self,
        receiver: RtValue,
        name: &str,
        args: &[Expr],
        row: Option<&RowCtx>,
    ) -> Result<RtValue, QueryError> {
        let frame = match receiver {
            RtValue::Frame(f) => f,
            other => {
                return Err(QueryError::runtime(format!(
                    "method '{name}' requires a frame receiver, got {}",
                    other.type_name()
                )))
            }
        };
        match name {
            "filter" => {
                expect_arity(name, args, 1)?;
                let mut mask = Vec::with_capacity(frame.n_rows());
                for r in 0..frame.n_rows() {
                    let ctx = RowCtx { frame: &frame, row: r };
                    let v = self.eval(&args[0], Some(&ctx))?.into_scalar()?;
                    mask.push(truthy(&v));
                }
                let out = frame.filter(&mask)?;
                Ok(RtValue::Frame(out))
            }
            "derive" => {
                expect_arity(name, args, 2)?;
                let col_name = self.eval_scalar(&args[0], row)?;
                let Value::Str(col_name) = col_name else {
                    return Err(QueryError::runtime(
                        "derive(name, expr): first argument must be a string",
                    ));
                };
                let mut values = Vec::with_capacity(frame.n_rows());
                for r in 0..frame.n_rows() {
                    let ctx = RowCtx { frame: &frame, row: r };
                    values.push(self.eval(&args[1], Some(&ctx))?.into_scalar()?);
                }
                let column = column_from_values(&col_name, values)?;
                Ok(RtValue::Frame(frame.with_column(column)?))
            }
            "select" => {
                let names = self.string_args(args, row)?;
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                Ok(RtValue::Frame(frame.select(&refs)?))
            }
            "group_by" => {
                // String args are keys; call args are aggregations.
                let mut keys: Vec<String> = Vec::new();
                let mut aggs: Vec<Aggregation> = Vec::new();
                for a in args {
                    match a {
                        Expr::Str(s) => keys.push(s.clone()),
                        Expr::Call { name: agg_name, args: agg_args, .. } => {
                            let kind = AggKind::parse(agg_name).ok_or_else(|| {
                                QueryError::runtime(format!(
                                    "unknown aggregation '{agg_name}' (try count, mean, sum, min, max, std, median, nunique)"
                                ))
                            })?;
                            let column = if agg_args.is_empty() {
                                String::new()
                            } else {
                                match self.eval_scalar(&agg_args[0], row)? {
                                    Value::Str(s) => s,
                                    other => {
                                        return Err(QueryError::runtime(format!(
                                            "aggregation column must be a string, got {other:?}"
                                        )))
                                    }
                                }
                            };
                            if kind != AggKind::Count && column.is_empty() {
                                return Err(QueryError::runtime(format!(
                                    "aggregation '{agg_name}' needs a column argument"
                                )));
                            }
                            aggs.push(Aggregation::new(&column, kind));
                        }
                        other => {
                            return Err(QueryError::runtime(format!(
                                "group_by arguments must be key strings or aggregation calls, got {other:?}"
                            )))
                        }
                    }
                }
                if aggs.is_empty() {
                    aggs.push(Aggregation::new("", AggKind::Count));
                }
                let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
                let out = frame.group_by(&key_refs, &aggs)?;
                self.check_wall_clock()?;
                Ok(RtValue::Frame(out))
            }
            "sort" => {
                let names = self.string_args(args, row)?;
                let col = names
                    .first()
                    .ok_or_else(|| QueryError::runtime("sort(column, [\"asc\"|\"desc\"])"))?;
                let ascending = match names.get(1).map(String::as_str) {
                    None | Some("asc") => true,
                    Some("desc") => false,
                    Some(other) => {
                        return Err(QueryError::runtime(format!(
                            "sort direction must be \"asc\" or \"desc\", got \"{other}\""
                        )))
                    }
                };
                let out = frame.sort_by(col, ascending)?;
                self.check_wall_clock()?;
                Ok(RtValue::Frame(out))
            }
            "head" => {
                expect_arity(name, args, 1)?;
                let n = self.numeric_arg(&args[0], row)?;
                Ok(RtValue::Frame(frame.head(n as usize)))
            }
            "tail" => {
                expect_arity(name, args, 1)?;
                let n = self.numeric_arg(&args[0], row)? as usize;
                let start = frame.n_rows().saturating_sub(n);
                let idx: Vec<usize> = (start..frame.n_rows()).collect();
                Ok(RtValue::Frame(frame.take(&idx)))
            }
            "explode" => {
                expect_arity(name, args, 1)?;
                let col = self.string_arg(&args[0], row)?;
                let out = frame.explode(&col)?;
                self.check_rows(&out)?;
                Ok(RtValue::Frame(out))
            }
            "value_counts" => {
                expect_arity(name, args, 1)?;
                let col = self.string_arg(&args[0], row)?;
                Ok(RtValue::Frame(frame.value_counts(&col)?))
            }
            "crosstab" => {
                expect_arity(name, args, 2)?;
                let a = self.string_arg(&args[0], row)?;
                let b = self.string_arg(&args[1], row)?;
                Ok(RtValue::Frame(frame.crosstab(&a, &b)?))
            }
            "join" => {
                expect_arity(name, args, 3)?;
                let other = self.eval(&args[0], row)?.into_frame()?;
                let key = self.string_arg(&args[1], row)?;
                let kind = match self.string_arg(&args[2], row)?.as_str() {
                    "inner" => JoinKind::Inner,
                    "left" => JoinKind::Left,
                    other => {
                        return Err(QueryError::runtime(format!(
                            "join kind must be \"inner\" or \"left\", got \"{other}\""
                        )))
                    }
                };
                let out = frame.join(&other, &key, kind)?;
                self.check_rows(&out)?;
                self.check_wall_clock()?;
                Ok(RtValue::Frame(out))
            }
            "concat" => {
                expect_arity(name, args, 1)?;
                let other = self.eval(&args[0], row)?.into_frame()?;
                let out = frame.concat(&other)?;
                // concat doubles rows per call: without this check a short
                // program bypasses the row budget exponentially.
                self.check_rows(&out)?;
                Ok(RtValue::Frame(out))
            }
            "rename" => {
                expect_arity(name, args, 2)?;
                let from = self.string_arg(&args[0], row)?;
                let to = self.string_arg(&args[1], row)?;
                Ok(RtValue::Frame(frame.rename(&from, &to)?))
            }
            "drop" => {
                expect_arity(name, args, 1)?;
                let col = self.string_arg(&args[0], row)?;
                Ok(RtValue::Frame(frame.drop_column(&col)?))
            }
            "count" => {
                expect_arity(name, args, 0)?;
                Ok(RtValue::Scalar(Value::Int(frame.n_rows() as i64)))
            }
            "mean" | "sum" | "min" | "max" | "std" | "median" | "nunique" => {
                expect_arity(name, args, 1)?;
                let col_name = self.string_arg(&args[0], row)?;
                let col = frame.column(&col_name)?;
                // Numeric aggregations over non-numeric columns are silent
                // zeros otherwise — surface them as type errors instead.
                if matches!(name, "mean" | "sum" | "std" | "median")
                    && matches!(
                        col.dtype(),
                        allhands_dataframe::DType::Str
                            | allhands_dataframe::DType::StrList
                            | allhands_dataframe::DType::DateTime
                    )
                {
                    return Err(QueryError::runtime(format!(
                        "{name}(\"{col_name}\") needs a numeric column, but '{col_name}' is {:?}",
                        col.dtype()
                    )));
                }
                Ok(RtValue::Scalar(match name {
                    "mean" => col.mean().map_or(Value::Null, Value::Float),
                    "sum" => Value::Float(col.sum()),
                    "min" => col.min(),
                    "max" => col.max(),
                    "std" => col.std().map_or(Value::Null, Value::Float),
                    "median" => col.median().map_or(Value::Null, Value::Float),
                    _ => Value::Int(col.n_unique() as i64),
                }))
            }
            "correlation" => {
                expect_arity(name, args, 2)?;
                let a = self.string_arg(&args[0], row)?;
                let b = self.string_arg(&args[1], row)?;
                Ok(RtValue::Scalar(Value::Float(frame.correlation(&a, &b)?)))
            }
            "column_values" => {
                expect_arity(name, args, 1)?;
                let col = self.string_arg(&args[0], row)?;
                let column = frame.column(&col)?;
                Ok(RtValue::List(column.iter().collect()))
            }
            "cell" => {
                expect_arity(name, args, 2)?;
                let r = self.numeric_arg(&args[0], row)? as usize;
                let col = self.string_arg(&args[1], row)?;
                Ok(RtValue::Scalar(frame.cell(r, &col)?))
            }
            other => Err(QueryError::runtime(format!(
                "unknown frame method '{other}' (try filter, derive, select, group_by, sort, head, explode, value_counts, join, count, mean, …)"
            ))),
        }
    }

    fn string_arg(&mut self, expr: &Expr, row: Option<&RowCtx>) -> Result<String, QueryError> {
        match self.eval_scalar(expr, row)? {
            Value::Str(s) => Ok(s),
            other => Err(QueryError::runtime(format!(
                "expected a string argument, got {other:?}"
            ))),
        }
    }

    fn string_args(
        &mut self,
        args: &[Expr],
        row: Option<&RowCtx>,
    ) -> Result<Vec<String>, QueryError> {
        args.iter().map(|a| self.string_arg(a, row)).collect()
    }

    fn numeric_arg(&mut self, expr: &Expr, row: Option<&RowCtx>) -> Result<f64, QueryError> {
        self.eval_scalar(expr, row)?
            .as_f64()
            .ok_or_else(|| QueryError::runtime("expected a numeric argument"))
    }
}

fn contextualize(mut e: QueryError, line: usize) -> QueryError {
    if e.line == 0 {
        e.line = line;
    }
    e
}

fn expect_arity(name: &str, args: &[Expr], n: usize) -> Result<(), QueryError> {
    if args.len() == n {
        Ok(())
    } else {
        Err(QueryError::runtime(format!(
            "{name}() expects {n} argument(s), got {}",
            args.len()
        )))
    }
}

/// Per-op bulk step cost for the vectorized executor, sized to track the
/// row-wise engine's per-row/per-node charges.
fn op_charge(op: &PlanOp, rows: usize) -> u64 {
    match op {
        PlanOp::Filter { pred } => 1 + rows as u64 * pred.node_count(),
        PlanOp::Derive { expr, .. } => 2 + rows as u64 * expr.node_count(),
        PlanOp::GroupBy { keys, aggs } => 1 + (keys.len() + aggs.len()) as u64,
        PlanOp::Select { cols } => 1 + cols.len() as u64,
        PlanOp::Sort { .. } | PlanOp::TopK { .. } => 3,
        PlanOp::Head { .. } | PlanOp::ValueCounts { .. } => 2,
        PlanOp::Join { .. } => 4,
    }
}

/// AQL numbers are f64 at parse time; integral values become Int so counts
/// behave like integers.
pub(crate) fn number_value(n: f64) -> Value {
    if n.fract() == 0.0 && n.abs() < 9e15 {
        Value::Int(n as i64)
    } else {
        Value::Float(n)
    }
}

pub(crate) fn truthy(v: &Value) -> bool {
    match v {
        Value::Bool(b) => *b,
        Value::Null => false,
        Value::Int(i) => *i != 0,
        Value::Float(f) => *f != 0.0,
        Value::Str(s) => !s.is_empty(),
        Value::StrList(l) => !l.is_empty(),
        Value::DateTime(_) => true,
    }
}

pub(crate) fn binary_op(op: BinOp, l: &Value, r: &Value) -> Result<Value, QueryError> {
    use BinOp::*;
    Ok(match op {
        And => Value::Bool(truthy(l) && truthy(r)),
        Or => Value::Bool(truthy(l) || truthy(r)),
        Eq => Value::Bool(l.loose_eq(r)),
        Ne => Value::Bool(!l.loose_eq(r)),
        Lt | Gt | Le | Ge => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Bool(false));
            }
            let ord = l.total_cmp(r);
            Value::Bool(match op {
                Lt => ord == std::cmp::Ordering::Less,
                Gt => ord == std::cmp::Ordering::Greater,
                Le => ord != std::cmp::Ordering::Greater,
                _ => ord != std::cmp::Ordering::Less,
            })
        }
        Add => match (l, r) {
            (Value::Str(a), Value::Str(b)) => Value::Str(format!("{a}{b}")),
            (Value::Null, _) | (_, Value::Null) => Value::Null,
            // Checked: adversarial programs can overflow i64; spill to f64
            // like a dynamic language instead of panicking in debug builds.
            (Value::Int(a), Value::Int(b)) => a
                .checked_add(*b)
                .map_or(Value::Float(*a as f64 + *b as f64), Value::Int),
            _ => arith(l, r, |a, b| a + b)?,
        },
        Sub => match (l, r) {
            (Value::Null, _) | (_, Value::Null) => Value::Null,
            (Value::Int(a), Value::Int(b)) => a
                .checked_sub(*b)
                .map_or(Value::Float(*a as f64 - *b as f64), Value::Int),
            _ => arith(l, r, |a, b| a - b)?,
        },
        Mul => match (l, r) {
            (Value::Null, _) | (_, Value::Null) => Value::Null,
            (Value::Int(a), Value::Int(b)) => a
                .checked_mul(*b)
                .map_or(Value::Float(*a as f64 * *b as f64), Value::Int),
            _ => arith(l, r, |a, b| a * b)?,
        },
        Div => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let denom = r
                .as_f64()
                .ok_or_else(|| QueryError::runtime(format!("cannot divide by {r:?}")))?;
            if denom == 0.0 {
                return Err(QueryError::runtime("division by zero"));
            }
            let numer = l
                .as_f64()
                .ok_or_else(|| QueryError::runtime(format!("cannot divide {l:?}")))?;
            Value::Float(numer / denom)
        }
    })
}

fn arith(l: &Value, r: &Value, f: impl Fn(f64, f64) -> f64) -> Result<Value, QueryError> {
    match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => Ok(Value::Float(f(a, b))),
        _ => Err(QueryError::runtime(format!(
            "arithmetic not defined for {l:?} and {r:?}"
        ))),
    }
}

/// Build a typed column from row-wise computed values (type inferred from
/// the non-null values; mixed Int/Float promotes to Float).
pub fn column_from_values(name: &str, values: Vec<Value>) -> Result<Column, QueryError> {
    use allhands_dataframe::DType;
    let mut dtype: Option<DType> = None;
    for v in &values {
        let t = match v {
            Value::Null => continue,
            Value::Int(_) => DType::Int,
            Value::Float(_) => DType::Float,
            Value::Str(_) => DType::Str,
            Value::Bool(_) => DType::Bool,
            Value::DateTime(_) => DType::DateTime,
            Value::StrList(_) => DType::StrList,
        };
        dtype = Some(match (dtype, t) {
            (None, t) => t,
            (Some(DType::Int), DType::Float) | (Some(DType::Float), DType::Int) => DType::Float,
            (Some(prev), t) if prev == t => prev,
            (Some(prev), t) => {
                return Err(QueryError::runtime(format!(
                    "derived column '{name}' mixes {prev:?} and {t:?}"
                )))
            }
        });
    }
    let dtype = dtype.unwrap_or(DType::Str); // all-null: arbitrary
    let mut data = ColumnData::empty(dtype);
    for v in values {
        let coerced = match (&v, dtype) {
            (Value::Int(i), DType::Float) => Value::Float(*i as f64),
            _ => v,
        };
        data.push(coerced)?;
    }
    Ok(Column::new(name, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use allhands_dataframe::CivilDateTime;

    fn frame() -> DataFrame {
        DataFrame::new(vec![
            Column::from_strs("product", &["A", "B", "A", "C"]),
            Column::from_f64s("sentiment", &[0.5, -0.5, 1.0, 0.0]),
            Column::from_str_lists("topics", vec![
                vec!["bug".into()],
                vec!["bug".into(), "ui".into()],
                vec!["perf".into()],
                vec![],
            ]),
            Column::from_datetimes("ts", &[
                CivilDateTime::date(2023, 4, 3).to_epoch(),  // Monday
                CivilDateTime::date(2023, 4, 8).to_epoch(),  // Saturday
                CivilDateTime::date(2023, 5, 1).to_epoch(),
                CivilDateTime::date(2023, 5, 2).to_epoch(),
            ]),
        ])
        .unwrap()
    }

    fn run(src: &str) -> (Vec<RtValue>, Option<QueryError>) {
        let mut interp = Interpreter::new(1_000_000, 1_000_000);
        interp.bind("df", RtValue::Frame(frame()));
        let program = parse_program(src).unwrap();
        let err = interp.run(&program).err();
        (interp.take_effects().shown, err)
    }

    fn run_scalar(src: &str) -> Value {
        let (shown, err) = run(src);
        assert!(err.is_none(), "{err:?}");
        shown.into_iter().next().unwrap().into_scalar().unwrap()
    }

    /// A single join/group_by/sort can cost thousands of steps' worth of
    /// wall time, so those operations must consult the cell deadline
    /// directly — even between the interpreter's periodic every-4096-steps
    /// checks.
    #[test]
    fn frame_ops_check_wall_clock_between_periodic_checks() {
        for src in [
            r#"show(df.sort("sentiment"))"#,
            r#"show(df.group_by("product", count()))"#,
            r#"show(df.join(df, "product", "inner"))"#,
        ] {
            let mut interp = Interpreter::new(1_000_000, 1_000_000);
            interp.bind("df", RtValue::Frame(frame()));
            // An already-expired deadline...
            interp.start_cell_clock(Some(std::time::Duration::ZERO));
            // ...with the periodic check out of reach: the program takes a
            // handful of steps, nowhere near the next multiple of 4096.
            interp.steps_taken = 1;
            let program = parse_program(src).unwrap();
            let err = interp.run(&program).expect_err("expired deadline must stop the op");
            assert!(err.to_string().contains("wall-clock"), "{src}: {err}");
        }
    }

    #[test]
    fn filter_with_row_expr() {
        let v = run_scalar(r#"show(df.filter(product == "A").count())"#);
        assert_eq!(v, Value::Int(2));
    }

    #[test]
    fn filter_with_logic_and_functions() {
        let v = run_scalar(r#"show(df.filter(has_topic(topics, "bug") && sentiment < 0).count())"#);
        assert_eq!(v, Value::Int(1));
    }

    #[test]
    fn derive_and_group() {
        let (shown, err) = run(
            r#"let g = df.derive("m", month(ts)).group_by("m", mean("sentiment"), count());
show(g)"#,
        );
        assert!(err.is_none(), "{err:?}");
        let f = shown.into_iter().next().unwrap().into_frame().unwrap();
        assert_eq!(f.n_rows(), 2);
        assert!(f.has_column("sentiment_mean"));
        assert!(f.has_column("count"));
    }

    #[test]
    fn weekend_detection() {
        let v = run_scalar(r#"show(df.filter(is_weekend(ts)).count())"#);
        assert_eq!(v, Value::Int(1));
    }

    #[test]
    fn explode_and_value_counts() {
        let (shown, _) = run(r#"show(df.explode("topics").value_counts("topics"))"#);
        let f = shown.into_iter().next().unwrap().into_frame().unwrap();
        assert_eq!(f.cell(0, "topics").unwrap(), Value::str("bug"));
        assert_eq!(f.cell(0, "count").unwrap(), Value::Int(2));
    }

    #[test]
    fn arithmetic_and_percent() {
        assert_eq!(run_scalar("show(1 + 2 * 3)"), Value::Int(7));
        assert_eq!(run_scalar("show(7 / 2)"), Value::Float(3.5));
        assert_eq!(run_scalar("show(percent(1, 8))"), Value::Float(12.5));
        let (_, err) = run("show(1 / 0)");
        assert!(err.unwrap().message.contains("division by zero"));
    }

    #[test]
    fn in_list_row_filter() {
        let v = run_scalar(r#"show(df.filter(in_list(product, ["A", "C"])).count())"#);
        assert_eq!(v, Value::Int(3));
    }

    #[test]
    fn column_values_then_in_list() {
        let v = run_scalar(
            r#"let top = df.value_counts("product").head(1).column_values("product");
show(df.filter(in_list(product, top)).count())"#,
        );
        assert_eq!(v, Value::Int(2));
    }

    #[test]
    fn coalesce_and_is_null_after_left_join() {
        let src = r#"let a = df.filter(product == "A").value_counts("product");
let c = df.filter(product == "C").value_counts("product");
let j = a.join(c, "product", "left");
show(j.filter(is_null(count_right)).count());
let k = j.derive("total", count + coalesce(count_right, 0));
show(k.cell(0, "total"))"#;
        let (shown, err) = run(src);
        assert!(err.is_none(), "{err:?}");
        assert_eq!(shown[0].clone().into_scalar().unwrap(), Value::Int(1));
        assert_eq!(shown[1].clone().into_scalar().unwrap(), Value::Int(2));
    }

    #[test]
    fn unknown_names_error_helpfully() {
        let (_, err) = run("show(nonexistent)");
        assert!(err.unwrap().message.contains("unknown name"));
        let (_, err) = run("show(df.bogus_method())");
        assert!(err.unwrap().message.contains("unknown frame method"));
        let (_, err) = run("show(bogus_fn(df))");
        assert!(err.unwrap().message.contains("unknown function"));
    }

    #[test]
    fn step_budget_enforced() {
        let mut interp = Interpreter::new(10, 1_000_000);
        interp.bind("df", RtValue::Frame(frame()));
        let program = parse_program(r#"show(df.filter(sentiment > 0).count())"#).unwrap();
        let err = interp.run(&program).unwrap_err();
        assert!(err.message.contains("step budget"));
    }

    #[test]
    fn string_concat_and_compare() {
        assert_eq!(run_scalar(r#"show("a" + "b")"#), Value::str("ab"));
        assert_eq!(run_scalar(r#"show("abc" == "abc")"#), Value::Bool(true));
        assert_eq!(run_scalar(r#"show(lower("ABC"))"#), Value::str("abc"));
    }

    #[test]
    fn short_circuit_evaluation() {
        // The rhs would error (unknown name) but must not evaluate.
        assert_eq!(run_scalar("show(false && boom)"), Value::Bool(false));
        assert_eq!(run_scalar("show(true || boom)"), Value::Bool(true));
    }

    #[test]
    fn derive_infers_types() {
        let c = column_from_values("x", vec![Value::Int(1), Value::Float(2.5)]).unwrap();
        assert_eq!(c.dtype(), allhands_dataframe::DType::Float);
        let c = column_from_values("x", vec![Value::Null, Value::str("a")]).unwrap();
        assert_eq!(c.dtype(), allhands_dataframe::DType::Str);
        assert!(column_from_values("x", vec![Value::Int(1), Value::str("a")]).is_err());
    }
}
