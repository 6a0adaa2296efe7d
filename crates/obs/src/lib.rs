//! `allhands-obs`: deterministic tracing + metrics for the AllHands pipeline.
//!
//! The observability contract has two halves:
//!
//! * **Deterministic** data — counters, histograms, the span-tree *shape*, and
//!   run metadata — is a pure function of the logical work performed. Running
//!   the same pipeline at `ALLHANDS_THREADS=1` and `ALLHANDS_THREADS=8` must
//!   produce byte-identical deterministic sections ([`RunReport::deterministic_json`]).
//! * **Volatile** data — wall-clock durations, per-chunk scheduling metrics,
//!   cache hit/miss splits that depend on racing threads, and the thread count
//!   itself — is reported for humans but excluded from the determinism
//!   contract.
//!
//! A [`Recorder`] is a cheap-`Clone` handle threaded through the pipeline.
//! [`Recorder::disabled`] is a no-op handle: every operation short-circuits on
//! a single `Option` branch so instrumented hot paths stay within benchmark
//! noise when observability is off.
//!
//! Spans are hierarchical (`pipeline > classify > batch[i]`, …) and must only
//! be opened/closed on one thread (the pipeline driver thread); parallel
//! workers contribute counters, never spans, which is what keeps the span tree
//! deterministic.
//!
//! The serve layer's `serve.*` metric family (queue depth, replication lag,
//! per-replica read counts, replicated entries) is volatile by construction —
//! the values depend on connection and writer-thread interleaving — so the
//! server records them exclusively through the volatile annex (`vincr` /
//! `vadd` / `vobserve`) and opens no spans at all.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde_json::{Map, Value};

/// Schema version stamped into every exported [`RunReport`] JSON document.
pub const OBS_SCHEMA_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// An order-independent histogram over `u64` observations.
///
/// Buckets are log2-spaced (`bucket = bits(value)`, with `0` in its own
/// bucket), so the full state — count, sum, min, max, per-bucket counts — is a
/// pure function of the *multiset* of observed values, independent of
/// observation order or thread interleaving.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// log2 bucket index -> number of observations in that bucket.
    pub buckets: BTreeMap<u32, u64>,
}

impl Histogram {
    fn observe(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        let bucket = if value == 0 { 0 } else { 64 - value.leading_zeros() };
        *self.buckets.entry(bucket).or_insert(0) += 1;
    }

    fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("count".into(), Value::U64(self.count));
        m.insert("sum".into(), Value::U64(self.sum));
        m.insert("min".into(), Value::U64(self.min));
        m.insert("max".into(), Value::U64(self.max));
        let mut buckets = Map::new();
        for (b, n) in &self.buckets {
            buckets.insert(format!("2^{b}"), Value::U64(*n));
        }
        m.insert("buckets".into(), Value::Object(buckets));
        Value::Object(m)
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One node of the hierarchical span tree.
///
/// The tree *shape* (names + nesting + order) is deterministic; `duration_ms`
/// is wall-clock and excluded from the determinism contract.
#[derive(Debug, Clone)]
pub struct SpanNode {
    pub name: String,
    /// Wall-clock duration; `None` while the span is still open.
    pub duration_ms: Option<f64>,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    fn new(name: &str) -> Self {
        SpanNode { name: name.to_string(), duration_ms: None, children: Vec::new() }
    }

    fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("name".into(), Value::String(self.name.clone()));
        m.insert(
            "duration_ms".into(),
            match self.duration_ms {
                Some(d) => Value::F64(d),
                None => Value::Null,
            },
        );
        m.insert(
            "children".into(),
            Value::Array(self.children.iter().map(SpanNode::to_json).collect()),
        );
        Value::Object(m)
    }

    /// Shape-only view: names and nesting, no timings.
    fn to_shape_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("name".into(), Value::String(self.name.clone()));
        m.insert(
            "children".into(),
            Value::Array(self.children.iter().map(SpanNode::to_shape_json).collect()),
        );
        Value::Object(m)
    }

    /// Flattened `parent > child` paths, depth-first. Handy for shape asserts.
    pub fn paths(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_paths("", &mut out);
        out
    }

    fn collect_paths(&self, prefix: &str, out: &mut Vec<String>) {
        let path = if prefix.is_empty() {
            self.name.clone()
        } else {
            format!("{prefix} > {}", self.name)
        };
        out.push(path.clone());
        for c in &self.children {
            c.collect_paths(&path, out);
        }
    }
}

#[derive(Default)]
struct SpanState {
    roots: Vec<SpanNode>,
    /// Stack of currently-open spans (the driver thread opens/closes in LIFO
    /// order; `SpanGuard` drop pops the top).
    open: Vec<(SpanNode, Instant)>,
}

/// RAII guard returned by [`Recorder::span`]; closing happens on drop.
pub struct SpanGuard {
    rec: Recorder,
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active {
            self.rec.end_span();
        }
    }
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

struct Inner {
    counters: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    volatile_counters: Mutex<BTreeMap<String, u64>>,
    volatile_histograms: Mutex<BTreeMap<String, Histogram>>,
    meta: Mutex<BTreeMap<String, String>>,
    spans: Mutex<SpanState>,
    started: Instant,
}

/// Cheap-`Clone` metrics/tracing handle.
///
/// All clones share one underlying sink. [`Recorder::disabled`] produces a
/// handle whose every operation is a single branch and a return.
#[derive(Clone)]
pub struct Recorder(Option<Arc<Inner>>);

impl Default for Recorder {
    fn default() -> Self {
        Recorder::disabled()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").field("enabled", &self.is_enabled()).finish()
    }
}

impl Recorder {
    /// A live recorder collecting into a fresh sink.
    pub fn new() -> Self {
        Recorder(Some(Arc::new(Inner {
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            volatile_counters: Mutex::new(BTreeMap::new()),
            volatile_histograms: Mutex::new(BTreeMap::new()),
            meta: Mutex::new(BTreeMap::new()),
            spans: Mutex::new(SpanState::default()),
            started: Instant::now(),
        })))
    }

    /// The no-op recorder: every operation short-circuits immediately.
    pub fn disabled() -> Self {
        Recorder(None)
    }

    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Add `n` to a deterministic counter.
    pub fn add(&self, key: &str, n: u64) {
        if let Some(inner) = &self.0 {
            let mut c = inner.counters.lock().unwrap();
            match c.get_mut(key) {
                Some(v) => *v += n,
                None => {
                    c.insert(key.to_string(), n);
                }
            }
        }
    }

    /// Increment a deterministic counter by one.
    pub fn incr(&self, key: &str) {
        self.add(key, 1);
    }

    /// Observe a value in a deterministic (order-independent) histogram.
    pub fn observe(&self, key: &str, value: u64) {
        if let Some(inner) = &self.0 {
            let mut h = inner.histograms.lock().unwrap();
            if let Some(hist) = h.get_mut(key) {
                hist.observe(value);
            } else {
                let mut hist = Histogram::default();
                hist.observe(value);
                h.insert(key.to_string(), hist);
            }
        }
    }

    /// Add `n` to a **volatile** counter (excluded from determinism checks).
    pub fn vadd(&self, key: &str, n: u64) {
        if let Some(inner) = &self.0 {
            let mut c = inner.volatile_counters.lock().unwrap();
            match c.get_mut(key) {
                Some(v) => *v += n,
                None => {
                    c.insert(key.to_string(), n);
                }
            }
        }
    }

    /// Increment a volatile counter by one.
    pub fn vincr(&self, key: &str) {
        self.vadd(key, 1);
    }

    /// Observe a value in a **volatile** histogram.
    pub fn vobserve(&self, key: &str, value: u64) {
        if let Some(inner) = &self.0 {
            let mut h = inner.volatile_histograms.lock().unwrap();
            if let Some(hist) = h.get_mut(key) {
                hist.observe(value);
            } else {
                let mut hist = Histogram::default();
                hist.observe(value);
                h.insert(key.to_string(), hist);
            }
        }
    }

    /// Record a deterministic metadata string (model tier, corpus size, ...).
    pub fn set_meta(&self, key: &str, value: &str) {
        if let Some(inner) = &self.0 {
            inner.meta.lock().unwrap().insert(key.to_string(), value.to_string());
        }
    }

    /// Open a hierarchical span. **Driver-thread only**: spans must be opened
    /// and closed on a single thread so the tree shape stays deterministic.
    /// The span ends when the returned guard drops.
    #[must_use = "the span closes when the guard drops"]
    pub fn span(&self, name: &str) -> SpanGuard {
        if let Some(inner) = &self.0 {
            let mut st = inner.spans.lock().unwrap();
            st.open.push((SpanNode::new(name), Instant::now()));
            SpanGuard { rec: self.clone(), active: true }
        } else {
            SpanGuard { rec: Recorder::disabled(), active: false }
        }
    }

    fn end_span(&self) {
        if let Some(inner) = &self.0 {
            let mut st = inner.spans.lock().unwrap();
            if let Some((mut node, start)) = st.open.pop() {
                node.duration_ms = Some(start.elapsed().as_secs_f64() * 1000.0);
                match st.open.last_mut() {
                    Some((parent, _)) => parent.children.push(node),
                    None => st.roots.push(node),
                }
            }
        }
    }

    /// Snapshot everything collected so far into a [`RunReport`].
    ///
    /// Open spans are folded into the tree with `duration_ms: None`.
    pub fn report(&self) -> RunReport {
        let Some(inner) = &self.0 else {
            return RunReport::empty();
        };
        let mut spans = inner.spans.lock().unwrap().roots.clone();
        // Fold still-open spans in, innermost-last, so a mid-run snapshot
        // still shows the full tree.
        {
            let st = inner.spans.lock().unwrap();
            let mut pending: Option<SpanNode> = None;
            for (node, _) in st.open.iter().rev() {
                let mut n = node.clone();
                if let Some(child) = pending.take() {
                    n.children.push(child);
                }
                pending = Some(n);
            }
            if let Some(root) = pending {
                spans.push(root);
            }
        }
        RunReport {
            schema_version: OBS_SCHEMA_VERSION,
            counters: inner.counters.lock().unwrap().clone(),
            histograms: inner.histograms.lock().unwrap().clone(),
            volatile_counters: inner.volatile_counters.lock().unwrap().clone(),
            volatile_histograms: inner.volatile_histograms.lock().unwrap().clone(),
            meta: inner.meta.lock().unwrap().clone(),
            spans,
            total_ms: inner.started.elapsed().as_secs_f64() * 1000.0,
            enabled: true,
        }
    }
}

// ---------------------------------------------------------------------------
// RunReport
// ---------------------------------------------------------------------------

/// A structured snapshot of one run's observability data.
///
/// Exportable as schema-stable JSON ([`RunReport::to_json`], validated by
/// [`validate_report_json`]) and as a human summary ([`RunReport::to_text`],
/// also the `Display` impl). [`RunReport::deterministic_json`] is the
/// thread-count-invariant view used by the determinism tests.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub schema_version: u64,
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, Histogram>,
    pub volatile_counters: BTreeMap<String, u64>,
    pub volatile_histograms: BTreeMap<String, Histogram>,
    pub meta: BTreeMap<String, String>,
    pub spans: Vec<SpanNode>,
    /// Wall-clock time since the recorder was created (volatile).
    pub total_ms: f64,
    enabled: bool,
}

impl RunReport {
    /// The report of a disabled recorder: no data, `is_empty()` is true.
    pub fn empty() -> Self {
        RunReport {
            schema_version: OBS_SCHEMA_VERSION,
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            volatile_counters: BTreeMap::new(),
            volatile_histograms: BTreeMap::new(),
            meta: BTreeMap::new(),
            spans: Vec::new(),
            total_ms: 0.0,
            enabled: false,
        }
    }

    /// True when no metric, meta entry, or span was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.histograms.is_empty()
            && self.volatile_counters.is_empty()
            && self.volatile_histograms.is_empty()
            && self.meta.is_empty()
            && self.spans.is_empty()
    }

    /// Convenience counter lookup (0 when absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Flattened span paths (`pipeline > classify > batch[0]`, ...).
    pub fn span_paths(&self) -> Vec<String> {
        let mut out = Vec::new();
        for s in &self.spans {
            out.extend(s.paths());
        }
        out
    }

    /// Full schema-stable JSON document (schema version [`OBS_SCHEMA_VERSION`]).
    pub fn to_json(&self) -> Value {
        let mut root = Map::new();
        root.insert("schema_version".into(), Value::U64(self.schema_version));
        root.insert("enabled".into(), Value::Bool(self.enabled));
        root.insert("total_ms".into(), Value::F64(self.total_ms));

        let mut meta = Map::new();
        for (k, v) in &self.meta {
            meta.insert(k.clone(), Value::String(v.clone()));
        }
        root.insert("meta".into(), Value::Object(meta));

        let mut counters = Map::new();
        for (k, v) in &self.counters {
            counters.insert(k.clone(), Value::U64(*v));
        }
        root.insert("counters".into(), Value::Object(counters));

        let mut hists = Map::new();
        for (k, h) in &self.histograms {
            hists.insert(k.clone(), h.to_json());
        }
        root.insert("histograms".into(), Value::Object(hists));

        let mut vol = Map::new();
        let mut vcounters = Map::new();
        for (k, v) in &self.volatile_counters {
            vcounters.insert(k.clone(), Value::U64(*v));
        }
        vol.insert("counters".into(), Value::Object(vcounters));
        let mut vhists = Map::new();
        for (k, h) in &self.volatile_histograms {
            vhists.insert(k.clone(), h.to_json());
        }
        vol.insert("histograms".into(), Value::Object(vhists));
        root.insert("volatile".into(), Value::Object(vol));

        root.insert(
            "spans".into(),
            Value::Array(self.spans.iter().map(SpanNode::to_json).collect()),
        );
        Value::Object(root)
    }

    /// The determinism-contract view: deterministic counters/histograms/meta
    /// plus the span tree *shape*. Volatile sections and all timings are
    /// stripped. Byte-identical across thread counts for the same logical run.
    pub fn deterministic_json(&self) -> Value {
        let mut root = Map::new();
        root.insert("schema_version".into(), Value::U64(self.schema_version));

        let mut meta = Map::new();
        for (k, v) in &self.meta {
            meta.insert(k.clone(), Value::String(v.clone()));
        }
        root.insert("meta".into(), Value::Object(meta));

        let mut counters = Map::new();
        for (k, v) in &self.counters {
            counters.insert(k.clone(), Value::U64(*v));
        }
        root.insert("counters".into(), Value::Object(counters));

        let mut hists = Map::new();
        for (k, h) in &self.histograms {
            hists.insert(k.clone(), h.to_json());
        }
        root.insert("histograms".into(), Value::Object(hists));

        root.insert(
            "spans".into(),
            Value::Array(self.spans.iter().map(SpanNode::to_shape_json).collect()),
        );
        Value::Object(root)
    }

    /// Human-readable multi-line summary (also the `Display` impl).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if !self.enabled {
            out.push_str("observability disabled: empty report\n");
            return out;
        }
        out.push_str(&format!(
            "run report (schema v{}, {:.1} ms total)\n",
            self.schema_version, self.total_ms
        ));
        if !self.meta.is_empty() {
            out.push_str("meta:\n");
            for (k, v) in &self.meta {
                out.push_str(&format!("  {k} = {v}\n"));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k} = {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (k, h) in &self.histograms {
                out.push_str(&format!(
                    "  {k}: count={} sum={} min={} max={}\n",
                    h.count, h.sum, h.min, h.max
                ));
            }
        }
        if !self.volatile_counters.is_empty() || !self.volatile_histograms.is_empty() {
            out.push_str("volatile (thread-dependent, excluded from determinism):\n");
            for (k, v) in &self.volatile_counters {
                out.push_str(&format!("  {k} = {v}\n"));
            }
            for (k, h) in &self.volatile_histograms {
                out.push_str(&format!(
                    "  {k}: count={} sum={} min={} max={}\n",
                    h.count, h.sum, h.min, h.max
                ));
            }
        }
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            for s in &self.spans {
                write_span_text(s, 1, &mut out);
            }
        }
        out
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_text())
    }
}

fn write_span_text(node: &SpanNode, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    match node.duration_ms {
        Some(d) => out.push_str(&format!("{indent}{} ({d:.1} ms)\n", node.name)),
        None => out.push_str(&format!("{indent}{} (open)\n", node.name)),
    }
    for c in &node.children {
        write_span_text(c, depth + 1, out);
    }
}

// ---------------------------------------------------------------------------
// Schema validation
// ---------------------------------------------------------------------------

fn is_number(v: &Value) -> bool {
    matches!(v, Value::U64(_) | Value::I64(_) | Value::F64(_))
}

fn is_uint(v: &Value) -> bool {
    match v {
        Value::U64(_) => true,
        Value::I64(i) => *i >= 0,
        _ => false,
    }
}

fn expect_object<'a>(root: &'a Map, key: &str) -> Result<&'a Map, String> {
    match root.get(key) {
        Some(Value::Object(m)) => Ok(m),
        Some(_) => Err(format!("`{key}` must be an object")),
        None => Err(format!("missing `{key}`")),
    }
}

fn validate_counter_map(m: &Map, section: &str) -> Result<(), String> {
    for (k, v) in m.iter() {
        if !is_uint(v) {
            return Err(format!("{section}.{k} must be a non-negative integer"));
        }
    }
    Ok(())
}

fn validate_histogram_map(m: &Map, section: &str) -> Result<(), String> {
    for (k, v) in m.iter() {
        let Value::Object(h) = v else {
            return Err(format!("{section}.{k} must be an object"));
        };
        for field in ["count", "sum", "min", "max"] {
            match h.get(field) {
                Some(v) if is_uint(v) => {}
                Some(_) => {
                    return Err(format!("{section}.{k}.{field} must be a non-negative integer"))
                }
                None => return Err(format!("{section}.{k} missing `{field}`")),
            }
        }
        match h.get("buckets") {
            Some(Value::Object(b)) => {
                for (bk, bv) in b.iter() {
                    if !bk.starts_with("2^") || !is_uint(bv) {
                        return Err(format!("{section}.{k}.buckets has malformed entry `{bk}`"));
                    }
                }
            }
            _ => return Err(format!("{section}.{k} missing `buckets` object")),
        }
    }
    Ok(())
}

fn validate_span(v: &Value, path: &str) -> Result<(), String> {
    let Value::Object(m) = v else {
        return Err(format!("{path} must be an object"));
    };
    match m.get("name") {
        Some(Value::String(_)) => {}
        _ => return Err(format!("{path}.name must be a string")),
    }
    match m.get("duration_ms") {
        Some(Value::Null) => {}
        Some(v) if is_number(v) => {}
        _ => return Err(format!("{path}.duration_ms must be a number or null")),
    }
    match m.get("children") {
        Some(Value::Array(kids)) => {
            for (i, k) in kids.iter().enumerate() {
                validate_span(k, &format!("{path}.children[{i}]"))?;
            }
        }
        _ => return Err(format!("{path}.children must be an array")),
    }
    Ok(())
}

/// Validate a JSON document against the [`RunReport`] schema
/// (version [`OBS_SCHEMA_VERSION`]). Returns a description of the first
/// violation found.
pub fn validate_report_json(doc: &Value) -> Result<(), String> {
    let Value::Object(root) = doc else {
        return Err("report root must be an object".into());
    };
    match root.get("schema_version") {
        Some(v) if is_uint(v) => {
            let got = match v {
                Value::U64(u) => *u,
                Value::I64(i) => *i as u64,
                _ => unreachable!(),
            };
            if got != OBS_SCHEMA_VERSION {
                return Err(format!(
                    "schema_version mismatch: expected {OBS_SCHEMA_VERSION}, got {got}"
                ));
            }
        }
        _ => return Err("missing integer `schema_version`".into()),
    }
    match root.get("enabled") {
        Some(Value::Bool(_)) => {}
        _ => return Err("missing boolean `enabled`".into()),
    }
    match root.get("total_ms") {
        Some(v) if is_number(v) => {}
        _ => return Err("missing numeric `total_ms`".into()),
    }
    let meta = expect_object(root, "meta")?;
    for (k, v) in meta.iter() {
        if !matches!(v, Value::String(_)) {
            return Err(format!("meta.{k} must be a string"));
        }
    }
    validate_counter_map(expect_object(root, "counters")?, "counters")?;
    validate_histogram_map(expect_object(root, "histograms")?, "histograms")?;
    let vol = expect_object(root, "volatile")?;
    validate_counter_map(expect_object(vol, "counters")?, "volatile.counters")?;
    validate_histogram_map(expect_object(vol, "histograms")?, "volatile.histograms")?;
    match root.get("spans") {
        Some(Value::Array(spans)) => {
            for (i, s) in spans.iter().enumerate() {
                validate_span(s, &format!("spans[{i}]"))?;
            }
        }
        _ => return Err("missing array `spans`".into()),
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        rec.incr("a");
        rec.add("b", 5);
        rec.observe("h", 3);
        rec.vincr("v");
        rec.set_meta("m", "x");
        {
            let _g = rec.span("root");
        }
        let report = rec.report();
        assert!(report.is_empty());
        assert_eq!(report.to_text(), "observability disabled: empty report\n");
        validate_report_json(&report.to_json()).unwrap();
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let rec = Recorder::new();
        rec.incr("x");
        rec.add("x", 2);
        rec.observe("h", 0);
        rec.observe("h", 1);
        rec.observe("h", 9);
        let report = rec.report();
        assert_eq!(report.counter("x"), 3);
        let h = &report.histograms["h"];
        assert_eq!((h.count, h.sum, h.min, h.max), (3, 10, 0, 9));
        // 0 -> bucket 0, 1 -> bucket 1, 9 -> bucket 4
        assert_eq!(h.buckets[&0], 1);
        assert_eq!(h.buckets[&1], 1);
        assert_eq!(h.buckets[&4], 1);
    }

    #[test]
    fn histogram_is_order_independent() {
        let values = [7u64, 0, 3, 3, 1024, 9];
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in values {
            a.observe(v);
        }
        for v in values.iter().rev() {
            b.observe(*v);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn span_tree_nests_in_open_order() {
        let rec = Recorder::new();
        {
            let _root = rec.span("pipeline");
            {
                let _c = rec.span("classify");
                let _b = rec.span("batch[0]");
            }
            let _t = rec.span("topics");
        }
        let report = rec.report();
        assert_eq!(
            report.span_paths(),
            vec![
                "pipeline".to_string(),
                "pipeline > classify".to_string(),
                "pipeline > classify > batch[0]".to_string(),
                "pipeline > topics".to_string(),
            ]
        );
        assert!(report.spans[0].duration_ms.is_some());
    }

    #[test]
    fn open_spans_appear_in_snapshot() {
        let rec = Recorder::new();
        let _root = rec.span("pipeline");
        let _child = rec.span("classify");
        let report = rec.report();
        assert_eq!(
            report.span_paths(),
            vec!["pipeline".to_string(), "pipeline > classify".to_string()]
        );
        assert!(report.spans[0].duration_ms.is_none());
    }

    #[test]
    fn deterministic_json_strips_volatile_and_timings() {
        let rec = Recorder::new();
        rec.incr("stable");
        rec.vincr("flaky");
        {
            let _s = rec.span("root");
        }
        let det = serde_json::to_string(&rec.report().deterministic_json()).unwrap();
        assert!(det.contains("stable"));
        assert!(!det.contains("flaky"));
        assert!(!det.contains("duration_ms"));
        assert!(!det.contains("total_ms"));
    }

    #[test]
    fn report_json_roundtrips_and_validates() {
        let rec = Recorder::new();
        rec.set_meta("tier", "gpt-4");
        rec.add("llm.calls", 12);
        rec.observe("sizes", 42);
        rec.vobserve("chunks", 7);
        {
            let _root = rec.span("pipeline");
            let _c = rec.span("classify");
        }
        let json = rec.report().to_json();
        validate_report_json(&json).unwrap();
        let pretty = serde_json::to_string_pretty(&json).unwrap();
        let reparsed: Value = serde_json::from_str(&pretty).unwrap();
        validate_report_json(&reparsed).unwrap();
    }

    #[test]
    fn validation_rejects_malformed_reports() {
        let mut root = Map::new();
        root.insert("schema_version".into(), Value::U64(99));
        assert!(validate_report_json(&Value::Object(root)).is_err());
        assert!(validate_report_json(&Value::Array(vec![])).is_err());
    }

    #[test]
    fn to_text_mentions_key_sections() {
        let rec = Recorder::new();
        rec.set_meta("tier", "gpt-3.5");
        rec.incr("retries");
        rec.vincr("chunks");
        {
            let _s = rec.span("pipeline");
        }
        let text = rec.report().to_string();
        assert!(text.contains("meta:"));
        assert!(text.contains("retries = 1"));
        assert!(text.contains("volatile"));
        assert!(text.contains("pipeline ("));
    }
}
