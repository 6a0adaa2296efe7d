//! `allhands-perf`: the AllHands benchmark. Each workload drives one
//! user-visible path of the system end to end — analyze, ask, ingest,
//! recover, serve — checks that its outputs are correct, and reports the
//! metrics `BENCHMARK.json` names.
//!
//! ```text
//! allhands-perf --workload W --seed N [--seconds S] [--trace 0|1] [--out F]
//! allhands-perf --seed N [--trace]            every workload in turn
//! allhands-perf --smoke                       tiny sizes, every gate
//! allhands-perf --compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics of
//! an untraced run, or the per-layer metrics of a traced one (`--trace 1`).
//! `--out F` appends a fuller record of the run (sample counts, detail
//! latencies, gates) to `F`, one JSON object per line; `--compare` reads two
//! such files. See README.md beside this file for the workloads and metrics.

mod analyze;
mod ask;
mod compare;
mod harness;
mod ingest;
mod recover;
mod serve;
mod stats;
mod trace;

use harness::{Metric, Outcome, RunCtx};
use serde_json::{json, Map, Value};
use std::io::Write;
use std::path::{Path, PathBuf};

/// The benchmark definition: workloads and metrics with units, directions
/// and bounds.
const SPEC: &str = include_str!("../../../../../BENCHMARK.json");

/// Where traces and scratch directories go, relative to the working
/// directory (the repository root when run as documented).
const OUT_DIR: &str = "target/allhands-perf";

/// Seconds per workload in `--smoke`.
const SMOKE_SECONDS: f64 = 0.5;

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: stats::Better,
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    fn load() -> Spec {
        let doc: Value = SPEC.parse().expect("BENCHMARK.json is JSON");
        let metrics = |key: &str| -> Vec<MetricSpec> {
            let Value::Array(items) = &doc[key] else {
                panic!("BENCHMARK.json: {key} is not a list")
            };
            items
                .iter()
                .map(|m| MetricSpec {
                    name: text(&m["name"]),
                    unit: text(&m["unit"]),
                    better: stats::Better::parse(&text(&m["better"]))
                        .expect("better is lower or higher"),
                    bound: match m["bound"] {
                        Value::F64(b) => Some(b),
                        Value::I64(b) => Some(b as f64),
                        Value::U64(b) => Some(b as f64),
                        _ => None,
                    },
                })
                .collect()
        };
        let Value::Array(workloads) = &doc["workloads"] else {
            panic!("BENCHMARK.json: workloads is not a list")
        };
        Spec {
            run_seconds: match doc["run_seconds"] {
                Value::U64(s) => s as f64,
                Value::I64(s) => s as f64,
                _ => panic!("BENCHMARK.json: run_seconds is not a whole number"),
            },
            workloads: workloads.iter().map(|w| text(&w["name"])).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

fn text(v: &Value) -> String {
    match v {
        Value::String(s) => s.clone(),
        other => panic!("BENCHMARK.json: expected a string, got {other}"),
    }
}

fn run_workload(name: &str, ctx: &RunCtx) -> Outcome {
    let mut out = match name {
        "analyze-2k" => analyze::run(ctx),
        "ask-paper" => ask::run(ctx),
        "ingest-durable" => ingest::run(ctx),
        "recover-latest" => recover::run(ctx),
        "serve-mixed" => serve::run(ctx),
        other => unreachable!("workload {other} is checked against BENCHMARK.json"),
    };
    if ctx.trace {
        out.layer("par.threads", allhands_par::max_threads() as f64);
    }
    out
}

/// The end-to-end metrics of a run, in `BENCHMARK.json` order.
fn end_to_end(spec: &Spec, out: &Outcome) -> Vec<Metric> {
    spec.end_to_end
        .iter()
        .map(|m| {
            let (value, n) = match m.name.as_str() {
                "setup_s" => (stats::median(&out.setup_s), out.setup_s.len()),
                "op_p50_ms" => (stats::median(&out.op_ms), out.op_ms.len()),
                "op_mean_ms" => (stats::median(&out.round_means()), out.op_ms.len()),
                other => panic!("BENCHMARK.json names end-to-end metric {other}, which this program does not measure"),
            };
            Metric { name: m.name.clone(), unit: m.unit.clone(), value, n }
        })
        .collect()
}

/// The per-layer metrics of a traced run. A layer the workload never
/// reaches reads 0.
fn per_layer(spec: &Spec, out: &Outcome) -> Vec<Metric> {
    for name in out.layers.keys() {
        assert!(
            spec.per_layer.iter().any(|m| &m.name == name),
            "per-layer metric {name} is missing from BENCHMARK.json"
        );
    }
    spec.per_layer
        .iter()
        .map(|m| Metric {
            name: m.name.clone(),
            unit: m.unit.clone(),
            value: out.layers.get(&m.name).copied().unwrap_or(0.0),
            n: 1,
        })
        .collect()
}

fn metric_map(metrics: &[Metric], with_n: bool) -> Value {
    let mut m = Map::new();
    for r in metrics {
        let mut entry = Map::new();
        entry.insert("value".into(), Value::F64(r.value));
        entry.insert("unit".into(), r.unit.clone().into());
        if with_n {
            entry.insert("n".into(), r.n.into());
        }
        m.insert(r.name.clone(), Value::Object(entry));
    }
    Value::Object(m)
}

struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String], spec: &Spec) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: None,
        seconds: None,
        trace: false,
        out: None,
        smoke: false,
        compare: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !spec.workloads.contains(&w) {
                    return Err(format!(
                        "unknown workload {w}; known: {}",
                        spec.workloads.join(", ")
                    ));
                }
                a.workload = Some(w);
            }
            "--seed" => {
                a.seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = true;
                match it.peek().copied().map(String::as_str) {
                    Some("0") => {
                        a.trace = false;
                        it.next();
                    }
                    Some("1") => {
                        it.next();
                    }
                    _ => {}
                }
            }
            "--out" => a.out = Some(PathBuf::from(value("a file")?)),
            "--smoke" => a.smoke = true,
            "--compare" => {
                let parent = value("two files")?;
                let change = value("two files")?;
                a.compare = Some((parent.into(), change.into()));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.compare.is_none() && !a.smoke && a.seed.is_none() {
        return Err("--seed is required: the workload inputs are generated from it".into());
    }
    Ok(a)
}

/// Run one workload in a fresh scratch directory under [`OUT_DIR`], removed
/// afterwards (a gate checks that it is gone).
fn run_in_scratch(name: &str, seed: u64, seconds: f64, smoke: bool, trace: bool) -> Outcome {
    let scratch = PathBuf::from(OUT_DIR).join(format!("run-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        let mut out = Outcome::default();
        out.gate("scratch directory is created", false, || e.to_string());
        return out;
    }
    let ctx = RunCtx {
        seed,
        seconds,
        smoke,
        trace,
        scratch: scratch.clone(),
    };
    let mut out = run_workload(name, &ctx);
    out.gate("operations were measured", !out.op_ms.is_empty(), || {
        "no operation completed".into()
    });
    let removed = std::fs::remove_dir_all(&scratch).is_ok() && !scratch.exists();
    out.gate("scratch directory is removed", removed, || {
        format!("{} remains", scratch.display())
    });
    out
}

/// Run one workload and report it: a line per metric, gate and note, the
/// trace file, the `--out` record, and the result line. Returns whether
/// every gate passed.
fn run_one(
    spec: &Spec,
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_file: Option<&Path>,
) -> bool {
    let mut out = run_in_scratch(name, seed, seconds, false, trace);
    let threads = allhands_par::max_threads();
    println!(
        "== {name}  seed={seed} seconds={seconds} trace={} threads={threads}",
        u8::from(trace)
    );
    let e2e = end_to_end(spec, &out);
    let layers = if trace {
        per_layer(spec, &out)
    } else {
        Vec::new()
    };
    for r in e2e.iter().chain(&out.detail) {
        println!("  {:<34} {:>14.4} {:<6} n={}", r.name, r.value, r.unit, r.n);
    }
    for r in &layers {
        println!("  {:<34} {:>14.4} {}", r.name, r.value, r.unit);
    }
    for note in &out.notes {
        println!("  {note}");
    }
    for (gate, why) in &out.gates {
        match why {
            None => println!("  gate ok    {gate}"),
            Some(why) => println!("  gate FAIL  {gate}: {why}"),
        }
    }
    let correct = out.passed();

    if let Some(Value::Object(mut doc)) = out.trace.take() {
        doc.insert("per_layer".into(), metric_map(&layers, false));
        let path = PathBuf::from(OUT_DIR).join(format!("{name}.trace.json"));
        let written = serde_json::to_string_pretty(&Value::Object(doc))
            .map_err(|e| e.to_string())
            .and_then(|text| std::fs::write(&path, text).map_err(|e| e.to_string()));
        match written {
            Ok(()) => println!("  trace written to {}", path.display()),
            Err(e) => eprintln!("allhands-perf: cannot write {}: {e}", path.display()),
        }
    }
    if let Some(file) = out_file {
        let gates: Vec<Value> = out
            .gates
            .iter()
            .map(|(g, why)| json!({"gate": g.clone(), "ok": why.is_none()}))
            .collect();
        let record = json!({
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "threads": threads,
            "correct": correct,
            "attempted": out.attempted,
            "failed": out.failed,
            "metrics": metric_map(&e2e, true),
            "detail": metric_map(&out.detail, true),
            "per_layer": metric_map(&layers, false),
            "gates": Value::Array(gates),
        });
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(file)
            .and_then(|mut f| writeln!(f, "{record}"));
        if let Err(e) = appended {
            eprintln!("allhands-perf: cannot append to {}: {e}", file.display());
        }
    }
    let metrics = if trace { &layers } else { &e2e };
    let line = json!({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metric_map(metrics, false),
    });
    println!("{line}");
    correct
}

/// Every workload at tiny sizes, traced, so every gate runs. Returns the
/// gates that failed.
fn smoke(spec: &Spec) -> Vec<String> {
    let mut failed = Vec::new();
    for name in &spec.workloads {
        let out = run_in_scratch(name, 7, SMOKE_SECONDS, true, true);
        for (gate, why) in &out.gates {
            if let Some(why) = why {
                failed.push(format!("{name}: {gate}: {why}"));
            }
        }
        // Every metric the workload reports must be one BENCHMARK.json names.
        end_to_end(spec, &out);
        per_layer(spec, &out);
    }
    failed
}

fn main() {
    let spec = Spec::load();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv, &spec) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("allhands-perf: {e}");
            std::process::exit(2);
        }
    };
    if let Some((parent, change)) = &args.compare {
        std::process::exit(match compare::run(&spec, parent, change) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!("allhands-perf: {e}");
                2
            }
        });
    }
    if args.smoke {
        let failed = smoke(&spec);
        for f in &failed {
            eprintln!("smoke FAIL {f}");
        }
        println!(
            "smoke: {} workloads, {} failed gates",
            spec.workloads.len(),
            failed.len()
        );
        std::process::exit(i32::from(!failed.is_empty()));
    }
    if cfg!(debug_assertions) {
        eprintln!("allhands-perf: refusing to measure a debug build; build with --release");
        std::process::exit(2);
    }
    let seed = args.seed.expect("checked by parse_args");
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let names: Vec<String> = match &args.workload {
        Some(w) => vec![w.clone()],
        None => spec.workloads.clone(),
    };
    let mut all_ok = true;
    for name in &names {
        // Without an explicit `--trace 0|1` every workload runs untraced,
        // then once more traced when `--trace` was given.
        let traces: &[bool] = match (&args.workload, args.trace) {
            (None, true) => &[false, true],
            (_, trace) => {
                if trace {
                    &[true]
                } else {
                    &[false]
                }
            }
        };
        for &trace in traces {
            all_ok &= run_one(&spec, name, seed, seconds, trace, args.out.as_deref());
        }
    }
    std::process::exit(i32::from(!all_ok));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_names_what_the_program_measures() {
        let spec = Spec::load();
        assert_eq!(spec.workloads.len(), 5);
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        for m in &spec.end_to_end {
            assert!(
                m.bound.is_some_and(|b| (0.0..=0.25).contains(&b)),
                "{} bound",
                m.name
            );
        }
        // Every end-to-end name resolves (the lookup panics otherwise).
        end_to_end(
            &spec,
            &Outcome {
                op_ms: vec![1.0],
                setup_s: vec![1.0],
                ..Outcome::default()
            },
        );
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let spec = Spec::load();
        let args =
            |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>(), &spec);
        assert!(args(&["--seed", "1", "--trace"]).is_ok_and(|a| a.trace));
        assert!(args(&["--seed", "1", "--trace", "0"]).is_ok_and(|a| !a.trace));
        assert!(args(&["--trace", "1", "--seed", "3"]).is_ok_and(|a| a.trace && a.seed == Some(3)));
        assert!(args(&["--trace"]).is_err(), "the seed is required");
        assert!(args(&["--seed", "1", "--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1", "--seconds", "0"]).is_err());
    }

    /// Every workload at smoke sizes with every gate active.
    #[test]
    fn smoke_passes_every_gate() {
        let failed = smoke(&Spec::load());
        assert!(failed.is_empty(), "failed gates: {failed:#?}");
    }
}
