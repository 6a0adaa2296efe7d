//! `--compare PARENT CHANGE`: two sets of runs (files written with `--out`,
//! one record per line), judged metric by metric against the bounds in
//! `BENCHMARK.json`. For every workload and end-to-end metric it prints each
//! side's median and quartiles, the delta, and a verdict; beneath each
//! workload, the per-layer medians of traced runs with their deltas.

use crate::stats::{self, Verdict};
use crate::Spec;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// One `--out` record, reduced to what comparison needs.
struct Record {
    workload: String,
    trace: bool,
    metrics: BTreeMap<String, f64>,
    detail: BTreeMap<String, f64>,
    per_layer: BTreeMap<String, f64>,
}

fn values(v: &Value) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Value::Object(m) = v {
        for (name, entry) in m.iter() {
            if let Value::F64(x) = entry["value"] {
                out.insert(name.clone(), x);
            }
        }
    }
    out
}

fn load(path: &Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let v: Value = line
                .parse()
                .map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
            let Value::String(workload) = &v["workload"] else {
                return Err(format!(
                    "{}:{}: record has no workload",
                    path.display(),
                    i + 1
                ));
            };
            Ok(Record {
                workload: workload.clone(),
                trace: v["trace"] == Value::Bool(true),
                metrics: values(&v["metrics"]),
                detail: values(&v["detail"]),
                per_layer: values(&v["per_layer"]),
            })
        })
        .collect()
}

/// Per-run values of `metric` from `field` of the matching records.
fn column(
    records: &[Record],
    workload: &str,
    trace: bool,
    field: fn(&Record) -> &BTreeMap<String, f64>,
    metric: &str,
) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| field(r).get(metric).copied())
        .collect()
}

fn describe(values: &[f64]) -> String {
    match stats::quartiles(values) {
        Some([q1, _, q3]) => format!("{:.4} [{q1:.4}, {q3:.4}]", stats::median(values)),
        None if values.len() == 1 => format!("{:.4}", values[0]),
        None => "-".to_string(),
    }
}

fn delta(parent: &[f64], change: &[f64]) -> String {
    if parent.is_empty() || change.is_empty() {
        return "-".to_string();
    }
    let (p, c) = (stats::median(parent), stats::median(change));
    if p == 0.0 {
        return format!("{:+.4}", c - p);
    }
    format!("{:+.1}%", (c - p) / p.abs() * 100.0)
}

/// Print the comparison; `Ok(false)` when any metric regressed or could not
/// be resolved.
pub fn run(spec: &Spec, parent: &Path, change: &Path) -> Result<bool, String> {
    let (p, c) = (load(parent)?, load(change)?);
    let mut clean = true;
    for workload in &spec.workloads {
        let runs = |rs: &[Record], trace: bool| {
            rs.iter()
                .filter(|r| &r.workload == workload && r.trace == trace)
                .count()
        };
        let (pn, cn) = (runs(&p, false), runs(&c, false));
        let (pt, ct) = (runs(&p, true), runs(&c, true));
        if pn + cn + pt + ct == 0 {
            continue;
        }
        println!("== {workload}  (parent {pn} runs, change {cn} runs; traced {pt} / {ct})");
        println!(
            "  {:<28} {:>28} {:>28} {:>9}  verdict",
            "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta"
        );
        for m in &spec.end_to_end {
            let pv = column(&p, workload, false, |r| &r.metrics, &m.name);
            let cv = column(&c, workload, false, |r| &r.metrics, &m.name);
            let bound = m.bound.unwrap_or(0.0);
            let check_spread = m.name != "setup_s";
            let verdict = stats::verdict(&pv, &cv, m.better, bound, check_spread);
            clean &= !matches!(verdict, Verdict::Regressed | Verdict::Unresolved);
            println!(
                "  {:<28} {:>28} {:>28} {:>9}  {verdict} (bound {:.0}%)",
                m.name,
                describe(&pv),
                describe(&cv),
                delta(&pv, &cv),
                bound * 100.0
            );
        }
        let detail_names: std::collections::BTreeSet<&String> = p
            .iter()
            .chain(&c)
            .filter(|r| &r.workload == workload && !r.trace)
            .flat_map(|r| r.detail.keys())
            .collect();
        for name in detail_names {
            let pv = column(&p, workload, false, |r| &r.detail, name);
            let cv = column(&c, workload, false, |r| &r.detail, name);
            println!(
                "  {:<28} {:>28} {:>28} {:>9}  (detail)",
                name,
                describe(&pv),
                describe(&cv),
                delta(&pv, &cv)
            );
        }
        if pt + ct > 0 {
            println!("  per-layer (traced runs):");
            for m in &spec.per_layer {
                let pv = column(&p, workload, true, |r| &r.per_layer, &m.name);
                let cv = column(&c, workload, true, |r| &r.per_layer, &m.name);
                if pv.iter().chain(&cv).all(|&v| v == 0.0) {
                    continue;
                }
                let median = |v: &[f64]| match v {
                    [] => "-".to_string(),
                    _ => format!("{:.4}", stats::median(v)),
                };
                println!(
                    "    {:<38} {:>14} {:>14} {:>9} {}",
                    m.name,
                    median(&pv),
                    median(&cv),
                    delta(&pv, &cv),
                    m.unit
                );
            }
        }
    }
    Ok(clean)
}
