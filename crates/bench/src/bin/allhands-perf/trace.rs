//! The traced run's span store. The benchmark records its own spans (name,
//! start, end, parent, request id) around each call into a layer, grafts the
//! program's `RunReport` span trees beneath them, and reduces everything to
//! per-layer self time. A layer's self time is its spans' durations minus
//! the part their child spans cover; the root span of each operation is
//! labelled [`UNATTRIBUTED`], so its self time is the residual no layer
//! accounts for.

use allhands_obs::SpanNode;
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::time::Instant;

pub const UNATTRIBUTED: &str = "unattributed";

/// Where a span's timing came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// Timed by the benchmark around a call.
    Bench,
    /// A program span from a `RunReport`: a duration, no start time.
    Report,
    /// A duration measured on a separate, identical call (a replay), laid
    /// under the operation it stands for.
    Estimate,
}

#[derive(Debug, Clone)]
struct Span {
    name: String,
    layer: String,
    parent: Option<usize>,
    request: u64,
    start_ms: Option<f64>,
    dur_ms: f64,
    source: Source,
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

/// Maps a program span name (and the layer of its parent) to a layer, or
/// `None` to inherit the parent's.
pub type LayerOf = fn(name: &str, parent_layer: &str) -> Option<&'static str>;

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ms(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e3
    }

    /// Open a span now; close it with [`end`](Self::end).
    pub fn start(&mut self, name: &str, layer: &str, parent: Option<usize>, request: u64) -> usize {
        let start = self.now_ms();
        self.spans.push(Span {
            name: name.to_string(),
            layer: layer.to_string(),
            parent,
            request,
            start_ms: Some(start),
            dur_ms: 0.0,
            source: Source::Bench,
        });
        self.spans.len() - 1
    }

    /// Close span `id`, returning its duration in ms.
    pub fn end(&mut self, id: usize) -> f64 {
        let now = self.now_ms();
        let span = &mut self.spans[id];
        span.dur_ms = now - span.start_ms.unwrap_or(now);
        span.dur_ms
    }

    /// Attach a program span and its subtree under `parent`.
    pub fn graft(&mut self, parent: usize, node: &SpanNode, layer_of: LayerOf) {
        let parent_layer = self.spans[parent].layer.clone();
        let layer = layer_of(&node.name, &parent_layer)
            .unwrap_or(&parent_layer)
            .to_string();
        self.spans.push(Span {
            name: node.name.clone(),
            layer,
            parent: Some(parent),
            request: self.spans[parent].request,
            start_ms: None,
            dur_ms: node.duration_ms.unwrap_or(0.0),
            source: Source::Report,
        });
        let id = self.spans.len() - 1;
        for child in &node.children {
            self.graft(id, child, layer_of);
        }
    }

    /// Lay a separately measured duration under `parent`, clamped to the
    /// part of the parent its children do not already cover.
    pub fn estimate(&mut self, parent: usize, name: &str, layer: &str, dur_ms: f64) {
        let covered: f64 = self.children(parent).map(|c| self.spans[c].dur_ms).sum();
        let room = (self.spans[parent].dur_ms - covered).max(0.0);
        self.spans.push(Span {
            name: name.to_string(),
            layer: layer.to_string(),
            parent: Some(parent),
            request: self.spans[parent].request,
            start_ms: None,
            dur_ms: dur_ms.clamp(0.0, room),
            source: Source::Estimate,
        });
    }

    fn children(&self, id: usize) -> impl Iterator<Item = usize> + '_ {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.parent == Some(id))
            .map(|(i, _)| i)
    }

    fn self_ms(&self) -> Vec<f64> {
        let mut covered = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ms;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.dur_ms - c).max(0.0))
            .collect()
    }

    /// Total duration of the root spans: the traced operations' wall time.
    pub fn wall_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ms)
            .sum()
    }

    /// Self time per layer, summed over every span.
    pub fn layer_ms(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ms()) {
            *out.entry(s.layer.clone()).or_insert(0.0) += own;
        }
        out
    }

    /// Self time per layer as a share of [`wall_ms`](Self::wall_ms).
    pub fn layer_shares(&self) -> BTreeMap<String, f64> {
        let wall = self.wall_ms();
        self.layer_ms()
            .into_iter()
            .map(|(k, v)| (k, if wall > 0.0 { v / wall } else { 0.0 }))
            .collect()
    }

    /// The trace document: per-layer table (with the unattributed residual)
    /// and every span with its self time.
    pub fn to_json(&self, header: Map) -> Value {
        let wall = self.wall_ms();
        let layers: Vec<Value> = self
            .layer_ms()
            .into_iter()
            .map(|(layer, ms)| {
                json!({"layer": layer, "self_ms": ms, "share": if wall > 0.0 { ms / wall } else { 0.0 }})
            })
            .collect();
        let spans: Vec<Value> = self
            .spans
            .iter()
            .zip(self.self_ms())
            .enumerate()
            .map(|(id, (s, own))| {
                json!({
                    "id": id,
                    "name": s.name.clone(),
                    "layer": s.layer.clone(),
                    "parent": s.parent.map_or(Value::Null, Value::from),
                    "request": s.request,
                    "start_ms": s.start_ms.map_or(Value::Null, Value::from),
                    "end_ms": s.start_ms.map_or(Value::Null, |t| Value::from(t + s.dur_ms)),
                    "dur_ms": s.dur_ms,
                    "self_ms": own,
                    "source": match s.source {
                        Source::Bench => "bench",
                        Source::Report => "report",
                        Source::Estimate => "estimate",
                    },
                })
            })
            .collect();
        let mut doc = header;
        doc.insert("wall_ms".into(), Value::F64(wall));
        doc.insert("layers".into(), Value::Array(layers));
        doc.insert("spans".into(), Value::Array(spans));
        Value::Object(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, ms: f64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            name: name.to_string(),
            duration_ms: Some(ms),
            children,
        }
    }

    fn layer_of(name: &str, _parent: &str) -> Option<&'static str> {
        match name {
            "hac" => Some("topics.hac"),
            _ => None,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_grafts_inherit_layers() {
        let mut t = Tracer::new();
        let op = t.start("op", UNATTRIBUTED, None, 7);
        let topics = t.start("topics", "topics.self", Some(op), 7);
        t.end(topics);
        t.end(op);
        // Fix durations so the arithmetic is exact.
        t.spans[op].dur_ms = 100.0;
        t.spans[topics].dur_ms = 60.0;
        t.graft(
            topics,
            &node("round[0]", 20.0, vec![node("hac", 15.0, vec![])]),
            layer_of,
        );
        let ms = t.layer_ms();
        assert_eq!(ms[UNATTRIBUTED], 40.0);
        assert_eq!(ms["topics.self"], 40.0 + 5.0);
        assert_eq!(ms["topics.hac"], 15.0);
        assert_eq!(t.wall_ms(), 100.0);
        assert_eq!(t.layer_shares()["topics.hac"], 0.15);
        // Grafted spans carry the request id of the span they hang under.
        assert!(t.spans.iter().all(|s| s.request == 7));
    }

    #[test]
    fn estimates_are_clamped_to_the_uncovered_part_of_the_parent() {
        let mut t = Tracer::new();
        let op = t.start("op", UNATTRIBUTED, None, 0);
        t.end(op);
        t.spans[op].dur_ms = 10.0;
        t.graft(op, &node("recover", 6.0, vec![]), |_, _| {
            Some("core.restore")
        });
        t.estimate(op, "Journal::open", "journal.open", 9.0);
        let ms = t.layer_ms();
        assert_eq!(ms["journal.open"], 4.0);
        assert_eq!(ms[UNATTRIBUTED], 0.0);
        let doc = t.to_json(Map::new());
        assert_eq!(doc["spans"][2]["source"], "estimate");
        assert_eq!(doc["spans"][1]["start_ms"], Value::Null);
    }
}
