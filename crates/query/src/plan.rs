//! Logical-plan layer between the AQL AST and the dataframe kernels.
//!
//! Frame-method chains lower into a small [`PlanOp`] IR; a rule-based
//! optimizer applies head-limit fusion into sort (top-k) and conservative
//! projection pruning. Lowering is strictly opt-in: any construct whose
//! semantics the vectorized executor cannot reproduce exactly (effects,
//! plugins, dynamic arguments, unknown functions or arities) simply does
//! not lower and runs through the row-wise interpreter unchanged.
//!
//! Optimizer legality notes live next to each rule. The overarching safety
//! net is the executor's fallback contract (see
//! `Interpreter::eval_method_chain`): any error in the vectorized attempt
//! aborts it, and the row-wise engine re-runs the chain authoritatively.

use crate::ast::{BinOp, Expr, UnOp};
use crate::interp::number_value;
use allhands_dataframe::{AggKind, Aggregation, JoinKind, Value};

/// A lowered, vectorizable expression: the subset of [`Expr`] whose
/// evaluation is pure and whose per-row semantics the batch evaluator
/// mirrors exactly.
#[derive(Debug, Clone)]
pub(crate) enum VExpr {
    /// A literal (numbers already normalized through `number_value`).
    Lit(Value),
    /// Column of the current frame, else session binding.
    Ident(String),
    /// A list literal.
    List(Vec<VExpr>),
    /// Unary operator.
    Unary { op: UnOp, expr: Box<VExpr> },
    /// Binary operator (And/Or keep their short-circuit row semantics via
    /// masked evaluation).
    Binary { op: BinOp, lhs: Box<VExpr>, rhs: Box<VExpr> },
    /// A pure row function from the fixed whitelist, arity pre-checked.
    Call { name: String, args: Vec<VExpr> },
}

impl VExpr {
    /// AST node count, used for bulk step charging.
    pub(crate) fn node_count(&self) -> u64 {
        match self {
            VExpr::Lit(_) | VExpr::Ident(_) => 1,
            VExpr::List(items) => 1 + items.iter().map(VExpr::node_count).sum::<u64>(),
            VExpr::Unary { expr, .. } => 1 + expr.node_count(),
            VExpr::Binary { lhs, rhs, .. } => 1 + lhs.node_count() + rhs.node_count(),
            VExpr::Call { args, .. } => {
                1 + args.iter().map(VExpr::node_count).sum::<u64>()
            }
        }
    }

    /// All identifier names referenced anywhere in the expression.
    fn idents_into(&self, out: &mut Vec<String>) {
        match self {
            VExpr::Lit(_) => {}
            VExpr::Ident(name) => out.push(name.clone()),
            VExpr::List(items) => items.iter().for_each(|e| e.idents_into(out)),
            VExpr::Unary { expr, .. } => expr.idents_into(out),
            VExpr::Binary { lhs, rhs, .. } => {
                lhs.idents_into(out);
                rhs.idents_into(out);
            }
            VExpr::Call { args, .. } => args.iter().for_each(|e| e.idents_into(out)),
        }
    }
}

/// One lowered frame operation.
#[derive(Debug, Clone)]
pub(crate) enum PlanOp {
    /// `filter(pred)`.
    Filter { pred: VExpr },
    /// `derive(name, expr)`.
    Derive { name: String, expr: VExpr },
    /// `select(cols...)`.
    Select { cols: Vec<String> },
    /// `group_by(keys..., aggs...)`.
    GroupBy { keys: Vec<String>, aggs: Vec<Aggregation> },
    /// `sort(col, dir)`.
    Sort { col: String, ascending: bool },
    /// Fused `sort(col, dir).head(k)`.
    TopK { col: String, ascending: bool, k: usize },
    /// `head(n)`.
    Head { n: usize },
    /// `value_counts(col)`.
    ValueCounts { col: String },
    /// `join(right_binding, on, kind)`.
    Join { right: String, on: String, kind: JoinKind },
}

/// A method call in a flattened chain, borrowing the AST.
pub(crate) struct ChainCall<'a> {
    pub(crate) name: &'a str,
    pub(crate) args: &'a [Expr],
}

/// Flatten a `Method` spine into (base expression, calls innermost-first).
pub(crate) fn flatten_chain(expr: &Expr) -> (&Expr, Vec<ChainCall<'_>>) {
    let mut calls = Vec::new();
    let mut e = expr;
    while let Expr::Method { recv, name, args, .. } = e {
        calls.push(ChainCall { name, args });
        e = recv;
    }
    calls.reverse();
    (e, calls)
}

/// Lower the longest lowerable prefix of `calls`; returns the ops and how
/// many calls they consume.
pub(crate) fn lower_ops(calls: &[ChainCall]) -> (Vec<PlanOp>, usize) {
    let mut ops = Vec::new();
    for call in calls {
        match lower_call(call) {
            Some(op) => ops.push(op),
            None => break,
        }
    }
    let consumed = ops.len();
    (ops, consumed)
}

fn lower_call(call: &ChainCall) -> Option<PlanOp> {
    let args = call.args;
    Some(match call.name {
        "filter" if args.len() == 1 => PlanOp::Filter { pred: lower_vexpr(&args[0])? },
        "derive" if args.len() == 2 => {
            let Expr::Str(name) = &args[0] else { return None };
            PlanOp::Derive { name: name.clone(), expr: lower_vexpr(&args[1])? }
        }
        "select" => {
            let mut cols = Vec::with_capacity(args.len());
            for a in args {
                let Expr::Str(s) = a else { return None };
                cols.push(s.clone());
            }
            PlanOp::Select { cols }
        }
        "group_by" => {
            let mut keys = Vec::new();
            let mut aggs = Vec::new();
            for a in args {
                match a {
                    Expr::Str(s) => keys.push(s.clone()),
                    Expr::Call { name, args: agg_args, .. } => {
                        let kind = AggKind::parse(name)?;
                        let column = match agg_args.as_slice() {
                            [] => String::new(),
                            [Expr::Str(s)] => s.clone(),
                            _ => return None,
                        };
                        // Missing column for a non-count agg is a row-wise
                        // error; don't lower it.
                        if kind != AggKind::Count && column.is_empty() {
                            return None;
                        }
                        aggs.push(Aggregation::new(&column, kind));
                    }
                    _ => return None,
                }
            }
            if aggs.is_empty() {
                aggs.push(Aggregation::new("", AggKind::Count));
            }
            PlanOp::GroupBy { keys, aggs }
        }
        "sort" if (1..=2).contains(&args.len()) => {
            let Expr::Str(col) = &args[0] else { return None };
            let ascending = match args.get(1) {
                None => true,
                Some(Expr::Str(dir)) if dir == "asc" => true,
                Some(Expr::Str(dir)) if dir == "desc" => false,
                _ => return None,
            };
            PlanOp::Sort { col: col.clone(), ascending }
        }
        "head" if args.len() == 1 => {
            let Expr::Number(n) = &args[0] else { return None };
            // Same saturating cast chain the row-wise numeric_arg takes.
            PlanOp::Head { n: *n as usize }
        }
        "value_counts" if args.len() == 1 => {
            let Expr::Str(col) = &args[0] else { return None };
            PlanOp::ValueCounts { col: col.clone() }
        }
        "join" if args.len() == 3 => {
            let Expr::Ident(right) = &args[0] else { return None };
            let Expr::Str(on) = &args[1] else { return None };
            let kind = match &args[2] {
                Expr::Str(k) if k == "inner" => JoinKind::Inner,
                Expr::Str(k) if k == "left" => JoinKind::Left,
                _ => return None,
            };
            PlanOp::Join { right: right.clone(), on: on.clone(), kind }
        }
        _ => return None,
    })
}

/// The pure row functions the batch evaluator implements, with arities.
/// Anything else — effects, plugins, unknown names, arity mismatches —
/// refuses to lower so the row-wise engine produces the behavior.
const ROW_FNS: &[(&str, usize)] = &[
    ("contains", 2),
    ("starts_with", 2),
    ("lower", 1),
    ("upper", 1),
    ("length", 1),
    ("month", 1),
    ("year", 1),
    ("day", 1),
    ("week", 1),
    ("weekday", 1),
    ("is_weekend", 1),
    ("date", 1),
    ("has_topic", 2),
    ("in_list", 2),
    ("in_list_any", 2),
    ("is_null", 1),
    ("coalesce", 2),
    ("emoji_count", 1),
    ("has_url", 1),
    ("abs", 1),
    ("round", 2),
    ("percent", 2),
];

fn lower_vexpr(e: &Expr) -> Option<VExpr> {
    Some(match e {
        Expr::Number(n) => VExpr::Lit(number_value(*n)),
        Expr::Str(s) => VExpr::Lit(Value::Str(s.clone())),
        Expr::Bool(b) => VExpr::Lit(Value::Bool(*b)),
        Expr::Ident(name) => VExpr::Ident(name.clone()),
        Expr::List(items) => VExpr::List(
            items.iter().map(lower_vexpr).collect::<Option<Vec<_>>>()?,
        ),
        Expr::Unary { op, expr } => {
            VExpr::Unary { op: *op, expr: Box::new(lower_vexpr(expr)?) }
        }
        Expr::Binary { op, lhs, rhs } => VExpr::Binary {
            op: *op,
            lhs: Box::new(lower_vexpr(lhs)?),
            rhs: Box::new(lower_vexpr(rhs)?),
        },
        Expr::Call { name, args, .. } => {
            let (_, arity) = ROW_FNS.iter().find(|(n, _)| n == name)?;
            if args.len() != *arity {
                return None;
            }
            VExpr::Call {
                name: name.clone(),
                args: args.iter().map(lower_vexpr).collect::<Option<Vec<_>>>()?,
            }
        }
        Expr::Method { .. } => return None,
    })
}

/// Apply the rewrite rules against the base frame's column names.
pub(crate) fn optimize(ops: Vec<PlanOp>, base_schema: &[String]) -> Vec<PlanOp> {
    let mut ops = fuse_heads(ops);
    if let Some(select) = prune_projection(&ops, base_schema) {
        ops.insert(0, select);
    }
    ops
}

/// Rule: `sort(c).head(k)` → top-k selection; adjacent heads collapse.
fn fuse_heads(ops: Vec<PlanOp>) -> Vec<PlanOp> {
    let mut out: Vec<PlanOp> = Vec::with_capacity(ops.len());
    for op in ops {
        match (&op, out.last_mut()) {
            (PlanOp::Head { n }, Some(PlanOp::Sort { col, ascending })) => {
                let fused =
                    PlanOp::TopK { col: col.clone(), ascending: *ascending, k: *n };
                *out.last_mut().expect("checked") = fused;
            }
            (PlanOp::Head { n }, Some(PlanOp::TopK { k, .. })) => {
                *k = (*k).min(*n);
            }
            (PlanOp::Head { n }, Some(PlanOp::Head { n: prev })) => {
                *prev = (*prev).min(*n);
            }
            _ => out.push(op),
        }
    }
    out
}

/// Rule: when an early op bounds the output schema (select / group_by /
/// value_counts) and no join precedes it, prepend a select of just the base
/// columns the prefix references. Conservative by construction: skipped
/// when the needed set is empty (a zero-column frame loses its row count)
/// or when nothing would be pruned.
fn prune_projection(ops: &[PlanOp], base_schema: &[String]) -> Option<PlanOp> {
    let bound = ops.iter().position(|op| {
        matches!(
            op,
            PlanOp::Select { .. } | PlanOp::GroupBy { .. } | PlanOp::ValueCounts { .. }
        )
    })?;
    if ops[..=bound].iter().any(|op| matches!(op, PlanOp::Join { .. })) {
        return None;
    }
    let mut needed: Vec<String> = Vec::new();
    for op in &ops[..=bound] {
        let mut refs: Vec<String> = Vec::new();
        match op {
            PlanOp::Filter { pred } => pred.idents_into(&mut refs),
            PlanOp::Derive { expr, .. } => expr.idents_into(&mut refs),
            PlanOp::Select { cols } => refs.extend(cols.iter().cloned()),
            PlanOp::GroupBy { keys, aggs } => {
                refs.extend(keys.iter().cloned());
                refs.extend(aggs.iter().map(|a| a.column.clone()));
            }
            PlanOp::Sort { col, .. } | PlanOp::TopK { col, .. } => {
                refs.push(col.clone())
            }
            PlanOp::ValueCounts { col } => refs.push(col.clone()),
            PlanOp::Head { .. } => {}
            PlanOp::Join { .. } => unreachable!("excluded above"),
        }
        for r in refs {
            if base_schema.contains(&r) && !needed.contains(&r) {
                needed.push(r);
            }
        }
    }
    if needed.is_empty() || needed.len() == base_schema.len() {
        return None;
    }
    // Base order keeps the pruning select deterministic.
    let cols: Vec<String> =
        base_schema.iter().filter(|c| needed.contains(c)).cloned().collect();
    Some(PlanOp::Select { cols })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn lower_src(src: &str) -> (Vec<PlanOp>, usize) {
        let program = parse_program(src).unwrap();
        let crate::ast::Stmt::Expr { expr, .. } = &program.statements[0] else {
            panic!("expected expression statement");
        };
        let (_, calls) = flatten_chain(expr);
        lower_ops(&calls)
    }

    #[test]
    fn lowers_supported_chain_fully() {
        let (ops, consumed) = lower_src(
            r#"df.filter(x > 1).select("x", "y").group_by("x", count()).sort("count", "desc").head(3)"#,
        );
        assert_eq!(consumed, 5);
        assert!(matches!(ops[0], PlanOp::Filter { .. }));
        assert!(matches!(ops[4], PlanOp::Head { n: 3 }));
    }

    #[test]
    fn stops_at_non_lowerable_call() {
        // count() is a scalar terminal, not a plan op.
        let (_, consumed) = lower_src(r#"df.filter(x > 1).count()"#);
        assert_eq!(consumed, 1);
        // Effects never lower.
        let (_, consumed) = lower_src(r#"df.filter(show(x))"#);
        assert_eq!(consumed, 0);
        // Unknown function / wrong arity never lowers.
        let (_, consumed) = lower_src(r#"df.filter(bogus(x))"#);
        assert_eq!(consumed, 0);
        let (_, consumed) = lower_src(r#"df.filter(contains(x))"#);
        assert_eq!(consumed, 0);
    }

    #[test]
    fn sort_head_fuses_to_top_k() {
        let (ops, _) = lower_src(r#"df.sort("x", "desc").head(5).head(9)"#);
        let ops = optimize(ops, &["x".to_string()]);
        assert_eq!(ops.len(), 1);
        assert!(
            matches!(&ops[0], PlanOp::TopK { col, ascending: false, k: 5 } if col == "x"),
            "{ops:?}"
        );
    }

    #[test]
    fn filter_never_pushes_past_derive() {
        // df.derive("d", 1 / x).filter(x != 0): pushing the filter first
        // would mask the row-wise division-by-zero error.
        let schema = vec!["x".to_string()];
        let (ops, _) = lower_src(r#"df.derive("d", 1 / x).filter(x != 0)"#);
        let opt = optimize(ops, &schema);
        assert!(matches!(opt[0], PlanOp::Derive { .. }), "{opt:?}");
    }

    #[test]
    fn projection_pruning_keeps_referenced_base_columns() {
        let schema: Vec<String> =
            ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect();
        let (ops, _) =
            lower_src(r#"df.filter(a > 1).group_by("b", mean("c"))"#);
        let opt = optimize(ops, &schema);
        let PlanOp::Select { cols } = &opt[0] else {
            panic!("expected pruning select, got {opt:?}");
        };
        assert_eq!(cols, &["a".to_string(), "b".to_string(), "c".to_string()]);
    }
}
