//! `ask-paper`: interactive QA at paper scale. One client asks the 90 paper
//! questions in order, each on a session over its dataset's paper-size
//! synthetic frame (11,340 / 3,654 / 4,117 rows), so the agent, code
//! generation, the query engine (reflection retries, plan cache) and the
//! dataframe kernels do the work.
//!
//! Each round is a new conversation: the three sessions are rebuilt from
//! the frames before it, untimed. A session's asks slow down as it
//! accumulates state (on a 2-core host the median ask was about a fifth
//! slower after 4,000 asks on the same sessions than on fresh ones), so one
//! session for the whole run would make later asks — and a faster program,
//! which asks more — read slower.

use crate::harness::{self, ms_since, Outcome, RunCtx, SETUP_REPS};
use crate::trace::{Tracer, UNATTRIBUTED};
use allhands_core::{AllHands, RecorderMode};
use allhands_dataframe::DataFrame;
use allhands_datasets::{
    all_questions, dataset_frame, generate, generate_n, DatasetKind, QuestionSpec,
};
use allhands_llm::ModelTier;
use std::collections::BTreeMap;
use std::time::Instant;

const KINDS: [DatasetKind; 3] = [
    DatasetKind::GoogleStoreApp,
    DatasetKind::ForumPost,
    DatasetKind::MSearch,
];

/// The analysis frame of each dataset, generated from the seed.
fn frames(ctx: &RunCtx) -> Vec<DataFrame> {
    KINDS
        .iter()
        .map(|&kind| {
            let records = match ctx.smoke {
                false => generate(kind, ctx.seed),
                true => generate_n(kind, 300, ctx.seed),
            };
            dataset_frame(kind, &records)
        })
        .collect()
}

fn sessions(frames: &[DataFrame], recorder: &RecorderMode) -> Vec<AllHands> {
    frames
        .iter()
        .map(|f| {
            AllHands::builder(ModelTier::Gpt4)
                .recorder(recorder.clone())
                .from_frame(f.clone())
        })
        .collect()
}

/// What one pass of rounds produced.
#[derive(Default)]
struct Pass {
    ms: Vec<f64>,
    /// Digest of each round's rendered answers.
    digests: Vec<u64>,
    answer_errors: usize,
    failed: u64,
    /// Counters of the traced sessions.
    counters: BTreeMap<String, u64>,
}

/// Ask every question in order on fresh sessions, round after round, until
/// `seconds` pass (at least one round). With a tracer, each ask is an
/// operation span holding the session's own `question[i]` span tree.
fn pass(
    frames: &[DataFrame],
    questions: &[QuestionSpec],
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let recorder = match tracer {
        Some(_) => RecorderMode::Enabled,
        None => RecorderMode::Disabled,
    };
    let mut pass = Pass::default();
    let until = harness::deadline(seconds);
    while pass.digests.is_empty() || Instant::now() < until {
        let mut sessions = sessions(frames, &recorder);
        // Operation span ids per session, in ask order: the `question[i]`
        // spans of session s belong under ops[s][i].
        let mut ops: Vec<Vec<usize>> = vec![Vec::new(); KINDS.len()];
        let mut rendered = Vec::with_capacity(questions.len());
        for q in questions {
            let s = KINDS
                .iter()
                .position(|&k| k == q.dataset)
                .expect("question targets a known dataset");
            let request = pass.ms.len() as u64;
            let op = tracer
                .as_mut()
                .map(|t| t.start("ask", UNATTRIBUTED, None, request));
            let t = Instant::now();
            let r = sessions[s].ask(q.text);
            pass.ms.push(ms_since(t));
            if let (Some(tracer), Some(op)) = (tracer.as_mut(), op) {
                tracer.end(op);
                ops[s].push(op);
            }
            match r {
                Ok(resp) => {
                    pass.answer_errors += usize::from(resp.error.is_some());
                    rendered.push(resp.render());
                }
                Err(e) => {
                    pass.failed += 1;
                    rendered.push(format!("error: {e}"));
                }
            }
        }
        pass.digests
            .push(digest(rendered.iter().map(String::as_str)));
        if let Some(tracer) = tracer.as_mut() {
            for (ah, ops) in sessions.iter().zip(&ops) {
                let report = ah.run_report();
                harness::add_counters(&mut pass.counters, &report);
                let asked = report
                    .spans
                    .iter()
                    .filter(|n| n.name == "qa")
                    .flat_map(|qa| &qa.children);
                for (node, &op) in asked.zip(ops) {
                    tracer.graft(op, node, layer_of);
                }
            }
        }
    }
    pass
}

pub fn run(ctx: &RunCtx) -> Outcome {
    let questions = all_questions();
    let mut out = Outcome {
        round_len: questions.len(),
        ..Outcome::default()
    };
    let mut built = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        built = frames(ctx);
        drop(sessions(&built, &RecorderMode::Disabled));
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let untraced = pass(&built, &questions, ctx.pass_seconds(), None);
    out.attempted += untraced.ms.len() as u64;
    out.failed += untraced.failed;
    out.op_ms = untraced.ms.clone();
    let first = untraced.digests[0];
    out.gate(
        "every round answers identically",
        untraced.digests.iter().all(|&d| d == first),
        || format!("round digests {:016x?}", untraced.digests),
    );
    out.notes
        .push(format!("answer digest (first round) {first:016x}"));
    out.tail_detail("ask", &out.op_ms.clone());
    let asks = out.op_ms.len();
    out.detail(
        "ask_qps",
        "1/s",
        asks as f64 / (out.op_ms.iter().sum::<f64>() / 1e3),
        asks,
    );
    out.detail(
        "answer_error_share",
        "share",
        untraced.answer_errors as f64 / asks as f64,
        asks,
    );

    if ctx.trace {
        let mut tracer = Tracer::new();
        let traced = pass(&built, &questions, ctx.pass_seconds(), Some(&mut tracer));
        out.attempted += traced.ms.len() as u64;
        out.failed += traced.failed;
        out.gate(
            "traced answers equal untraced answers",
            traced.digests.iter().all(|&d| d == first),
            || format!("traced digests {:016x?} vs {first:016x}", traced.digests),
        );
        let asks = traced.ms.len() as f64;
        let c = |k: &str| harness::count(&traced.counters, k);
        harness::common_layers(&mut out, &traced.counters, asks);
        out.layer(
            "agent.attempts_per_ask",
            harness::ratio(c("qa.attempts"), c("qa.questions")),
        );
        out.layer(
            "agent.answer_error_share",
            traced.answer_errors as f64 / asks,
        );
        let (hits, misses) = (c("query.plan.cache.hits"), c("query.plan.cache.misses"));
        out.layer(
            "query.plan_cache_hit_ratio",
            harness::ratio(hits, hits + misses),
        );
        let (vectorized, fallbacks) = (c("query.exec.vectorized"), c("query.exec.fallback"));
        out.layer(
            "query.fallback_share",
            harness::ratio(fallbacks, vectorized + fallbacks),
        );
        out.layer(
            "query.rows_pruned_per_exec",
            harness::ratio(c("query.plan.rows.pruned"), vectorized),
        );
        out.layer(
            "trace.overhead_share",
            harness::overhead_share(&out.op_ms, &traced.ms),
        );
        harness::share_layers(&mut out, &tracer);
        out.trace = Some(tracer.to_json(harness::trace_header(ctx, "ask-paper")));
    }
    out
}

fn layer_of(name: &str, _parent: &str) -> Option<&'static str> {
    match name {
        "plan" => Some("agent.plan"),
        n if n.starts_with("codegen[") => Some("llm.codegen"),
        n if n.starts_with("execute[") => Some("query.execute"),
        n if n.starts_with("question[") || n.starts_with("reflect[") => Some("agent.self"),
        _ => None,
    }
}

/// FNV-1a over a sequence of strings, each terminated so boundaries count.
fn digest<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in parts {
        for b in p.bytes().chain([0xff]) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
