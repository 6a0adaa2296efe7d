//! What every workload shares: run settings, the outcome a workload hands
//! back, correctness gates, the generated feedback corpus, and helpers for
//! reading the program's own run report and reducing a trace.

use crate::stats;
use crate::trace::Tracer;
use allhands_classify::LabeledExample;
use allhands_datasets::{generate_n, DatasetKind};
use allhands_obs::RunReport;
use allhands_serve::Corpus;
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The predefined topics every corpus starts from (the paper's seed list).
const PREDEFINED: [&str; 3] = ["bug", "crash", "feature request"];

/// Salt separating the documents a workload ingests from its seed corpus.
const FRESH_SALT: u64 = 0x5eed_f00d;

pub struct RunCtx {
    pub seed: u64,
    /// Measured seconds for the run.
    pub seconds: f64,
    /// Tiny sizes, for the smoke test.
    pub smoke: bool,
    /// A traced run: half the time untraced (for the overhead reference),
    /// half traced.
    pub trace: bool,
    /// Working directory for journals and sockets; removed afterwards.
    pub scratch: PathBuf,
}

impl RunCtx {
    /// Seconds for one pass: the whole run, or half of a traced run.
    pub fn pass_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Pick the full-size or the smoke-size value.
    pub fn size<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// A reported value with its unit and the number of samples behind it.
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub n: usize,
}

#[derive(Default)]
pub struct Outcome {
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Latency of each untraced operation, ms.
    pub op_ms: Vec<f64>,
    /// Operations per round: `op_mean_ms` is the median of the rounds'
    /// mean latencies, so a burst of interference from outside the program
    /// moves one round, not the run.
    pub round_len: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Gate name and its failure, if it failed.
    pub gates: Vec<(String, Option<String>)>,
    /// User-visible latencies and rates beyond the end-to-end metrics:
    /// printed and written to `--out`, not bounded.
    pub detail: Vec<Metric>,
    /// Per-layer metrics of the traced pass, by `BENCHMARK.json` name.
    pub layers: BTreeMap<String, f64>,
    /// The trace document, written next to the build output.
    pub trace: Option<Value>,
    /// Free-form lines for the human report (e.g. the answer digest).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a gate; `why` explains a failure. A gate checked repeatedly
    /// (once per round) is listed once and keeps its first failure.
    pub fn gate(&mut self, name: &str, ok: bool, why: impl FnOnce() -> String) {
        let failure = if ok { None } else { Some(why()) };
        match self.gates.iter_mut().find(|(n, _)| n == name) {
            Some((_, first)) => {
                if first.is_none() {
                    *first = failure;
                }
            }
            None => self.gates.push((name.to_string(), failure)),
        }
    }

    pub fn detail(&mut self, name: &str, unit: &str, value: f64, n: usize) {
        self.detail.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            n,
        });
    }

    /// Median and the highest supported tail percentile of `samples`.
    pub fn latency_detail(&mut self, name: &str, samples: &[f64]) {
        let Some(s) = stats::summarize(samples) else {
            return;
        };
        self.detail(&format!("{name}_p50_ms"), "ms", s.median, s.n);
        self.tail_detail(name, samples);
    }

    /// The highest supported tail percentile of `samples`, if any.
    pub fn tail_detail(&mut self, name: &str, samples: &[f64]) {
        if let Some((p, v)) = stats::summarize(samples).and_then(|s| s.tail) {
            self.detail(&format!("{name}_p{p}_ms"), "ms", v, samples.len());
        }
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Mean latency of each round of `round_len` operations; a trailing
    /// partial round counts as one.
    pub fn round_means(&self) -> Vec<f64> {
        self.op_ms
            .chunks(self.round_len.max(1))
            .map(stats::mean)
            .collect()
    }

    pub fn passed(&self) -> bool {
        self.gates.iter().all(|(_, why)| why.is_none())
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A deadline `seconds` from now.
pub fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

/// A GoogleStoreApp-shaped corpus: `docs` texts to analyze plus `demos`
/// labeled demonstrations drawn from the same generator.
pub fn corpus(seed: u64, docs: usize, demos: usize) -> Corpus {
    let records = generate_n(DatasetKind::GoogleStoreApp, demos + docs, seed);
    let labeled = records[..demos]
        .iter()
        .map(|r| LabeledExample {
            text: r.text.clone(),
            label: r.label.clone(),
        })
        .collect();
    let texts = records[demos..].iter().map(|r| r.text.clone()).collect();
    Corpus {
        texts,
        labeled,
        predefined: PREDEFINED.map(String::from).to_vec(),
    }
}

/// `batches` batches of `size` new documents, disjoint from the seed corpus.
pub fn fresh_batches(seed: u64, batches: usize, size: usize) -> Vec<Vec<String>> {
    let records = generate_n(
        DatasetKind::GoogleStoreApp,
        batches * size,
        seed ^ FRESH_SALT,
    );
    records
        .chunks(size)
        .map(|c| c.iter().map(|r| r.text.clone()).collect())
        .collect()
}

/// Add one report's counters, deterministic and volatile, into a running
/// total.
pub fn add_counters(total: &mut BTreeMap<String, u64>, report: &RunReport) {
    for (k, v) in report.counters.iter().chain(&report.volatile_counters) {
        *total.entry(k.clone()).or_insert(0) += v;
    }
}

/// `a / b`, or 0 when `b` is 0 (the layer did no such work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Counter value as `f64` (0 when absent).
pub fn count(c: &BTreeMap<String, u64>, key: &str) -> f64 {
    c.get(key).copied().unwrap_or(0) as f64
}

/// Per-operation counts every workload reports from its traced pass, from
/// the counters the program's recorder keeps.
pub fn common_layers(out: &mut Outcome, c: &BTreeMap<String, u64>, ops: f64) {
    let per_op = |k: &str| ratio(count(c, k), ops);
    out.layer("llm.classify_calls_per_op", per_op("llm.classify.calls"));
    out.layer(
        "llm.summarize_calls_per_op",
        per_op("llm.summarize.calls") + per_op("llm.summarize.cluster_calls"),
    );
    out.layer("llm.codegen_calls_per_op", per_op("llm.codegen.calls"));
    out.layer("embed.computes_per_op", per_op("embed.computes"));
    let (hits, misses) = (count(c, "embed.memo.hits"), count(c, "embed.memo.misses"));
    out.layer("embed.memo_hit_ratio", ratio(hits, hits + misses));
    let searches = count(c, "vectordb.searches.flat") + count(c, "vectordb.searches.ivf");
    let scanned = count(c, "vectordb.scanned.flat") + count(c, "vectordb.scanned.ivf");
    out.layer("vectordb.rows_scanned_per_search", ratio(scanned, searches));
    let attempts = count(c, "resilience.attempts");
    out.layer(
        "resilience.attempts_per_call",
        ratio(attempts, attempts - count(c, "resilience.retries")),
    );
}

/// The mean of the traced pass over the mean of the untraced pass, minus
/// one: what tracing itself costs.
pub fn overhead_share(untraced_ms: &[f64], traced_ms: &[f64]) -> f64 {
    if untraced_ms.is_empty() || traced_ms.is_empty() {
        return 0.0;
    }
    stats::mean(traced_ms) / stats::mean(untraced_ms) - 1.0
}

/// Per-layer self-time shares of a traced pass, named `<layer>_share`
/// (the residual is `unattributed_share`).
pub fn share_layers(out: &mut Outcome, tracer: &Tracer) {
    for (layer, share) in tracer.layer_shares() {
        out.layer(&format!("{layer}_share"), share);
    }
}

/// Fields every trace document starts with.
pub fn trace_header(ctx: &RunCtx, workload: &str) -> Map {
    let mut m = Map::new();
    m.insert("workload".into(), workload.into());
    m.insert("seed".into(), ctx.seed.into());
    m.insert("threads".into(), allhands_par::max_threads().into());
    m
}
