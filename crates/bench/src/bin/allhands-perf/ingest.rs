//! `ingest-durable`: the write path. A journaled session on the real file
//! system, checkpointing every 12 batches and keeping 2, takes batches of
//! 20 fresh documents: incremental classify/assign/index, a WAL append and
//! fsync per batch, and checkpoint encode + compaction every 12th batch.
//!
//! Set-up analyzes a 1,000-document seed once into a journal. Each round
//! copies that journal, resumes it, and ingests the same 48 batches, so the
//! session grows from 1,000 to 1,960 rows and per-batch costs that scale
//! with the session show; rounds repeat until the run's time is up.

use crate::harness::{self, ms_since, Outcome, RunCtx, SETUP_REPS};
use crate::stats;
use crate::trace::{Tracer, UNATTRIBUTED};
use allhands_core::{AllHands, AllHandsConfig, CheckpointPolicy, JournalMode, RecorderMode};
use allhands_dataframe::DataFrame;
use allhands_journal::{JOURNAL_FILE, LOCK_FILE};
use allhands_llm::ModelTier;
use allhands_serve::Corpus;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// The checkpoint cadence and retention the workload runs under.
pub fn durable_config(every: usize) -> AllHandsConfig {
    AllHandsConfig {
        checkpoint: CheckpointPolicy {
            every_n_batches: every,
            keep_last_k: 2,
        },
        ..AllHandsConfig::default()
    }
}

struct Setup {
    corpus: Corpus,
    batches: Vec<Vec<String>>,
    config: AllHandsConfig,
    every: usize,
}

/// One round's measurements: each batch's latency, and the frame after the
/// last batch (`None` when a batch failed).
struct Round {
    batch_ms: Vec<f64>,
    frame: Option<DataFrame>,
}

pub fn run(ctx: &RunCtx) -> Outcome {
    let (seed_docs, n_batches, batch_size, every) = ctx.size((1_000, 48, 20, 12), (40, 6, 5, 3));
    let mut out = Outcome {
        round_len: n_batches,
        ..Outcome::default()
    };
    let mut prepared = None;
    let template = ctx.scratch.join("seed");
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let corpus = harness::corpus(ctx.seed, seed_docs, 100.min(seed_docs / 2));
        let batches = harness::fresh_batches(ctx.seed, n_batches, batch_size);
        let config = durable_config(every);
        let _ = std::fs::remove_dir_all(&template);
        let seeded = AllHands::builder(ModelTier::Gpt4)
            .config(config.clone())
            .journal(JournalMode::Continue(template.clone()))
            .analyze(&corpus.texts, &corpus.labeled, &corpus.predefined);
        out.gate("seed analyze succeeds", seeded.is_ok(), || {
            format!("{:?}", seeded.err())
        });
        out.setup_s.push(t.elapsed().as_secs_f64());
        prepared = Some(Setup {
            corpus,
            batches,
            config,
            every,
        });
    }
    let setup = prepared.expect("SETUP_REPS > 0");
    let rows = seed_docs + n_batches * batch_size;
    let round_docs = n_batches * batch_size;

    let mut reference: Option<DataFrame> = None;
    let mut rounds = 0usize;
    let until = harness::deadline(ctx.pass_seconds());
    while rounds == 0 || Instant::now() < until {
        let r = round(
            ctx,
            &setup,
            &template,
            rounds,
            RecorderMode::Disabled,
            None,
            &mut out,
        );
        rounds += 1;
        out.op_ms.extend(&r.batch_ms);
        check_frame(&mut out, &mut reference, r.frame, rows);
    }
    let is_ckpt = |b: usize| (b + 1) % setup.every == 0;
    let pick = |keep: &dyn Fn(usize) -> bool| -> Vec<f64> {
        out.op_ms
            .iter()
            .enumerate()
            .filter(|(i, _)| keep(i % n_batches))
            .map(|(_, &v)| v)
            .collect()
    };
    let plain = pick(&|b| b > 0 && !is_ckpt(b));
    let ckpt = pick(&is_ckpt);
    let first = pick(&|b| b == 0);
    // Session rows before each plain batch, for the growth slope.
    let plain_krows: Vec<f64> = (0..rounds * n_batches)
        .map(|i| i % n_batches)
        .filter(|&b| b > 0 && !is_ckpt(b))
        .map(|b| (setup.corpus.texts.len() + b * batch_size) as f64 / 1e3)
        .collect();
    out.latency_detail("ingest_batch", &plain);
    out.latency_detail("ckpt_batch", &ckpt);
    out.latency_detail("first_batch", &first);
    let total_s = out.op_ms.iter().sum::<f64>() / 1e3;
    out.detail(
        "ingest_docs_per_s",
        "1/s",
        (rounds * round_docs) as f64 / total_s,
        out.op_ms.len(),
    );

    if ctx.trace {
        let growth = stats::slope(&plain_krows, &plain).unwrap_or(0.0);
        out.layer(
            "core.ingest_growth_per_krow",
            harness::ratio(growth, stats::mean(&plain)),
        );
        out.layer(
            "core.first_batch_ratio",
            harness::ratio(stats::median(&first), stats::median(&plain)),
        );
        traced_pass(ctx, &setup, &template, reference, &mut out);
    }
    let _ = std::fs::remove_dir_all(&template);
    out
}

fn check_frame(
    out: &mut Outcome,
    reference: &mut Option<DataFrame>,
    frame: Option<DataFrame>,
    rows: usize,
) {
    let Some(frame) = frame else {
        out.gate("every batch is ingested", false, || {
            "a round ended without a frame".into()
        });
        return;
    };
    out.gate(
        "session holds seed plus ingested rows",
        frame.n_rows() == rows,
        || format!("{} rows, expected {rows}", frame.n_rows()),
    );
    match reference {
        None => *reference = Some(frame),
        Some(r) => out.gate("every round ends in the same frame", *r == frame, || {
            "a repeated round diverged".into()
        }),
    }
}

/// Copy the seed journal, resume it, and ingest every batch. With a tracer,
/// each batch is an operation span and the session records its own spans.
fn round(
    ctx: &RunCtx,
    setup: &Setup,
    template: &Path,
    index: usize,
    recorder: RecorderMode,
    mut trace: Option<(&mut Tracer, &mut Traced)>,
    out: &mut Outcome,
) -> Round {
    let pass = if trace.is_some() { "traced" } else { "round" };
    let dir = ctx.scratch.join(format!("{pass}-{index}"));
    let mut r = Round {
        batch_ms: Vec::new(),
        frame: None,
    };
    if let Err(e) = copy_journal(template, &dir) {
        out.gate("seed journal copies", false, || e.to_string());
        return r;
    }
    let c = &setup.corpus;
    let resumed = AllHands::builder(ModelTier::Gpt4)
        .config(setup.config.clone())
        .recorder(recorder)
        .journal(JournalMode::Continue(dir.clone()))
        .analyze(&c.texts, &c.labeled, &c.predefined);
    let mut ah = match resumed {
        Ok((ah, _)) => ah,
        Err(e) => {
            out.gate("seed journal resumes", false, || e.to_string());
            return r;
        }
    };
    let mut ops = Vec::new();
    let mut files = dir_files(&dir);
    for (b, batch) in setup.batches.iter().enumerate() {
        let op = trace.as_mut().map(|(t, _)| {
            let request = index * setup.batches.len() + b;
            t.start("ingest", UNATTRIBUTED, None, request as u64)
        });
        let t = Instant::now();
        let result = ah.ingest(batch);
        let ms = ms_since(t);
        if let (Some((tracer, traced)), Some(op)) = (trace.as_mut(), op) {
            tracer.end(op);
            ops.push(op);
            let now = dir_files(&dir);
            traced.written += bytes_written(&files, &now);
            traced.user += batch.iter().map(|t| t.len() as u64).sum::<u64>();
            files = now;
        }
        out.attempted += 1;
        match result {
            Ok(rep) => {
                r.batch_ms.push(ms);
                r.frame = Some(rep.frame);
            }
            Err(e) => {
                out.failed += 1;
                r.frame = None;
                out.gate("ingest succeeds", false, || e.to_string());
                break;
            }
        }
    }
    if let Some((tracer, traced)) = trace {
        let report = ah.run_report();
        harness::add_counters(&mut traced.counters, &report);
        let batches = report
            .spans
            .iter()
            .filter(|n| n.name == "ingest")
            .flat_map(|n| &n.children);
        for (node, &op) in batches.zip(&ops) {
            tracer.graft(op, node, layer_of);
        }
    }
    drop(ah);
    let _ = std::fs::remove_dir_all(&dir);
    r
}

fn layer_of(name: &str, parent: &str) -> Option<&'static str> {
    match name {
        "classify" => Some("classify.batch"),
        "assign" => Some("core.assign"),
        "index" => Some("vectordb.index"),
        "resummarize" => Some("topics.resummarize"),
        "checkpoint" => Some("journal.checkpoint"),
        n if n.starts_with("batch[") && parent == UNATTRIBUTED => Some("core.ingest_self"),
        _ => None,
    }
}

/// Totals the traced rounds accumulate.
#[derive(Default)]
struct Traced {
    counters: BTreeMap<String, u64>,
    /// Bytes the journal directory gained: WAL appends, rewritten WALs and
    /// new checkpoint files.
    written: u64,
    /// Bytes of ingested text.
    user: u64,
}

fn traced_pass(
    ctx: &RunCtx,
    setup: &Setup,
    template: &Path,
    reference: Option<DataFrame>,
    out: &mut Outcome,
) {
    let mut tracer = Tracer::new();
    let mut traced = Traced::default();
    let mut traced_ms = Vec::new();
    let mut same = true;
    let until = harness::deadline(ctx.pass_seconds());
    let mut index = 0;
    while index == 0 || Instant::now() < until {
        let r = round(
            ctx,
            setup,
            template,
            index,
            RecorderMode::Enabled,
            Some((&mut tracer, &mut traced)),
            out,
        );
        index += 1;
        traced_ms.extend(&r.batch_ms);
        same &= r.frame.is_some() && r.frame == reference;
    }
    out.gate("traced rounds end in the untraced frame", same, || {
        "tracing changed the ingested state".into()
    });

    let c = |k: &str| harness::count(&traced.counters, k);
    let batches = traced_ms.len() as f64;
    harness::common_layers(out, &traced.counters, batches);
    out.layer(
        "journal.appends_per_batch",
        harness::ratio(c("journal.appends"), batches),
    );
    out.layer(
        "journal.fsyncs_per_batch",
        harness::ratio(c("journal.fsyncs"), batches),
    );
    out.layer(
        "journal.ckpt_kib",
        harness::ratio(
            c("journal.checkpoint.bytes") / 1024.0,
            c("journal.checkpoint.writes"),
        ),
    );
    out.layer(
        "journal.bytes_written_per_user_byte",
        harness::ratio(traced.written as f64, traced.user as f64),
    );
    out.layer(
        "vectordb.ivf_auto_retrains_per_batch",
        harness::ratio(c("vectordb.ivf_auto_retrains"), batches),
    );
    out.layer(
        "core.ingest_flushes_per_batch",
        harness::ratio(c("ingest.flushes"), batches),
    );
    out.layer(
        "trace.overhead_share",
        harness::overhead_share(&out.op_ms, &traced_ms),
    );
    harness::share_layers(out, &tracer);
    out.trace = Some(tracer.to_json(harness::trace_header(ctx, "ingest-durable")));
}

/// Copy the journal files of `from` (not its lock) into a fresh `to`.
fn copy_journal(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() && entry.file_name() != LOCK_FILE {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// File name → size for the regular files of `dir`.
pub fn dir_files(dir: &Path) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    if let Ok(listing) = std::fs::read_dir(dir) {
        for entry in listing.flatten() {
            if let Ok(meta) = entry.metadata() {
                if meta.is_file() {
                    out.insert(entry.file_name().to_string_lossy().into_owned(), meta.len());
                }
            }
        }
    }
    out
}

/// Bytes written between two listings: growth of the WAL (all of it when
/// compaction rewrote it shorter), and every new checkpoint file.
fn bytes_written(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) -> u64 {
    after
        .iter()
        .filter(|(name, _)| name.as_str() != LOCK_FILE)
        .map(|(name, &size)| match before.get(name) {
            Some(&old) if name == JOURNAL_FILE && size >= old => size - old,
            Some(&old) if size == old => 0,
            _ => size,
        })
        .sum()
}
