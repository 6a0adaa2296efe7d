//! `analyze-2k`: the structuring pass. One operation is a full
//! `AllHands::builder(..).analyze` over 2,000 GoogleStoreApp documents with
//! 100 labeled demonstrations and the 3 predefined topics, unjournaled, so
//! classification, topic modeling and the layers under them (embedding,
//! the LLM heads, HAC, vector retrieval) do nearly all the work. A round
//! analyzes five such corpora, each generated from its own seed.
//!
//! The traced pass replays the pipeline stage by stage through the public
//! stage APIs, timing each call, and must produce the same frame.

use crate::harness::{self, ms_since, Outcome, RunCtx, SETUP_REPS};
use crate::trace::{Tracer, UNATTRIBUTED};
use allhands_classify::LabeledExample;
use allhands_core::{
    estimate_sentiment, AbstractiveTopicModeler, AllHands, AllHandsConfig, DemoIndex,
    IclClassifier, QaAgent, ResilienceCtx,
};
use allhands_dataframe::{Column, DataFrame};
use allhands_llm::{ModelSpec, ModelTier, SimLlm};
use allhands_obs::Recorder;
use allhands_serve::Corpus;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Corpora per round. How long an analyze takes depends on the corpus drawn
/// (how many topics it coins and how they cluster), so each round analyzes
/// several corpora derived from the seed, and a run describes the generator
/// rather than one draw from it.
const CORPORA: usize = 5;

pub fn run(ctx: &RunCtx) -> Outcome {
    let (docs, demos, warm, n) = ctx.size((2_000, 100, 100, CORPORA), (40, 20, 10, 2));
    let mut out = Outcome {
        round_len: n,
        ..Outcome::default()
    };
    let mut corpora = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        corpora = (0..n)
            .map(|k| harness::corpus(sub_seed(ctx.seed, k), docs, demos))
            .collect();
        // The first analyze of a process also spawns the worker pool; do
        // it here, on a small slice, so every measured call finds it warm.
        let c = &corpora[0];
        let warmed =
            AllHands::builder(ModelTier::Gpt4).analyze(&c.texts[..warm], &c.labeled, &c.predefined);
        out.gate("warm-up analyze succeeds", warmed.is_ok(), || {
            format!("{:?}", warmed.err())
        });
        out.setup_s.push(t.elapsed().as_secs_f64());
    }

    // The first frame of each corpus; later rounds must reproduce it.
    let mut frames: Vec<DataFrame> = Vec::new();
    let mut same = true;
    let until = harness::deadline(ctx.pass_seconds());
    'rounds: while frames.is_empty() || Instant::now() < until {
        for (k, c) in corpora.iter().enumerate() {
            let t = Instant::now();
            let result =
                AllHands::builder(ModelTier::Gpt4).analyze(&c.texts, &c.labeled, &c.predefined);
            out.attempted += 1;
            match result {
                Ok((_, frame)) => {
                    out.op_ms.push(ms_since(t));
                    match frames.get(k) {
                        Some(first) => same &= *first == frame,
                        None => frames.push(frame),
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    out.gate("analyze succeeds", false, || e.to_string());
                    break 'rounds;
                }
            }
        }
    }
    out.gate("repeated analyzes of a corpus are identical", same, || {
        "analyze is not deterministic across repeats".into()
    });
    out.gate(
        "frames have one row per document",
        frames.len() == n && frames.iter().all(|f| f.n_rows() == docs),
        || format!("expected {n} frames of {docs} rows"),
    );
    let mean_s = crate::stats::mean(&out.op_ms) / 1e3;
    out.detail(
        "analyze_docs_per_s",
        "1/s",
        docs as f64 / mean_s,
        out.op_ms.len(),
    );

    if ctx.trace && frames.len() == n {
        traced_pass(ctx, &corpora, &frames, &mut out);
    }
    out
}

/// Replay the corpora in turn, each against the frame `analyze` made of it.
fn traced_pass(ctx: &RunCtx, corpora: &[Corpus], frames: &[DataFrame], out: &mut Outcome) {
    let mut tracer = Tracer::new();
    let mut totals = BTreeMap::new();
    let mut traced_ms = Vec::new();
    let until = harness::deadline(ctx.pass_seconds());
    let mut same = true;
    while traced_ms.is_empty() || Instant::now() < until {
        let k = traced_ms.len() % corpora.len();
        let (frame, ms) = replay(
            &corpora[k],
            &mut tracer,
            traced_ms.len() as u64,
            &mut totals,
        );
        out.attempted += 1;
        traced_ms.push(ms);
        same &= frame == frames[k];
    }
    out.gate("stage-by-stage replay equals analyze", same, || {
        "the traced replay produced a different frame".into()
    });
    let ops = traced_ms.len() as f64;
    harness::common_layers(out, &totals, ops);
    out.layer(
        "trace.overhead_share",
        harness::overhead_share(&out.op_ms, &traced_ms),
    );
    harness::share_layers(out, &tracer);
    out.trace = Some(tracer.to_json(harness::trace_header(ctx, "analyze-2k")));
}

/// Program span names under the replayed stage calls, by layer.
fn layer_of(name: &str, _parent: &str) -> Option<&'static str> {
    match name {
        "classify" => Some("classify.batch"),
        "topics" | "merge" => Some("topics.self"),
        "hac" => Some("topics.hac"),
        n if n.starts_with("round[") => Some("topics.round"),
        _ => None,
    }
}

/// The pipeline of `AllHandsBuilder::analyze` (unjournaled), one public
/// stage call at a time: demonstration index, batch classification, topic
/// modeling, sentiment and frame assembly, agent construction. Returns the
/// frame and the operation's wall time in ms.
fn replay(
    c: &Corpus,
    tracer: &mut Tracer,
    request: u64,
    totals: &mut BTreeMap<String, u64>,
) -> (DataFrame, f64) {
    let config = AllHandsConfig::default();
    let rec = Recorder::new();
    let op = tracer.start("analyze", UNATTRIBUTED, None, request);
    let mut llm = SimLlm::new(ModelSpec::for_tier(ModelTier::Gpt4));
    llm.set_recorder(rec.clone());
    let resilience = Arc::new(ResilienceCtx::with_recorder(config.resilience, rec.clone()));
    let labels = distinct_labels(&c.labeled);

    let fit = tracer.start("DemoIndex::fit", "classify.fit", Some(op), request);
    let mut demos = DemoIndex::fit(&llm, &c.labeled, &labels, &config.icl);
    demos.set_recorder(rec.clone());
    tracer.end(fit);

    let classify = tracer.start(
        "IclClassifier::classify_batch",
        "classify.batch",
        Some(op),
        request,
    );
    let predicted = IclClassifier::from_demos(&llm, Arc::new(demos), config.icl.clone())
        .with_resilience(Arc::clone(&resilience))
        .classify_batch(&c.texts);
    tracer.end(classify);

    let topics = tracer.start(
        "AbstractiveTopicModeler::run",
        "topics.self",
        Some(op),
        request,
    );
    let result = AbstractiveTopicModeler::new(&llm, config.topics.clone())
        .with_resilience(Arc::clone(&resilience))
        .run(&c.texts, &c.predefined);
    tracer.end(topics);

    let frame_span = tracer.start(
        "estimate_sentiment + DataFrame::new",
        "core.frame",
        Some(op),
        request,
    );
    let frame = structured_frame(&c.texts, &predicted, &result.doc_topics);
    tracer.end(frame_span);

    let agent = tracer.start("QaAgent::new", "agent.self", Some(op), request);
    let mut qa = QaAgent::new(
        SimLlm::new(ModelSpec::for_tier(ModelTier::Gpt4)),
        frame.clone(),
        config.agent,
    );
    qa.set_resilience(resilience);
    tracer.end(agent);
    let ms = tracer.end(op);

    let report = rec.report();
    for node in &report.spans {
        let under = if node.name == "classify" {
            classify
        } else {
            topics
        };
        tracer.graft(under, node, layer_of);
    }
    harness::add_counters(totals, &report);
    (frame, ms)
}

/// Labels of the demonstrations in first-appearance order, the candidate
/// order the pipeline classifies against.
fn distinct_labels(labeled: &[LabeledExample]) -> Vec<String> {
    let mut seen: Vec<String> = Vec::new();
    for ex in labeled {
        if !seen.contains(&ex.label) {
            seen.push(ex.label.clone());
        }
    }
    seen
}

/// The analyzed frame: one row per text with its label, sentiment, topics
/// and length.
fn structured_frame(texts: &[String], labels: &[String], topics: &[Vec<String>]) -> DataFrame {
    let sentiments: Vec<f64> = texts.iter().map(|t| estimate_sentiment(t)).collect();
    let lens: Vec<i64> = texts.iter().map(|t| t.chars().count() as i64).collect();
    DataFrame::new(vec![
        Column::from_i64s("id", &(0..texts.len() as i64).collect::<Vec<_>>()),
        Column::from_strings("text", texts.to_vec()),
        Column::from_strings("label", labels.to_vec()),
        Column::from_f64s("sentiment", &sentiments),
        Column::from_str_lists("topics", topics.to_vec()),
        Column::from_i64s("text_len", &lens),
    ])
    .expect("columns are equal length and uniquely named")
}

/// The `k`-th seed derived from a run's seed (`k = 0` is the seed itself).
fn sub_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}
