//! `recover-latest`: the read-after-crash path. Set-up builds a journaled
//! session the way `ingest-durable` does (1,000-document seed, then 30
//! batches of 20 under checkpoint-every-12, keep-2), so the journal holds
//! checkpoints at batches 12 and 24 and six deltas past the newest. One
//! operation is `recover_latest()` on that journal: open and verify the
//! WAL, decode the newest checkpoint, restore the session from it, and
//! replay the trailing deltas. The journal is only read, so every operation
//! recovers the same state.

use crate::harness::{self, ms_since, Outcome, RunCtx, SETUP_REPS};
use crate::ingest::{dir_files, durable_config};
use crate::trace::{Tracer, UNATTRIBUTED};
use allhands_core::{AllHands, AllHandsConfig, AllHandsError, JournalMode, RecorderMode};
use allhands_dataframe::DataFrame;
use allhands_journal::Journal;
use allhands_llm::ModelTier;
use allhands_serve::Corpus;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

struct Setup {
    corpus: Corpus,
    config: AllHandsConfig,
    /// The live session's frame after its last batch.
    live: DataFrame,
    batches: usize,
    /// The last batch a checkpoint covers, 0-based.
    covered: usize,
}

fn build(ctx: &RunCtx, dir: &Path) -> Result<Setup, AllHandsError> {
    let (seed_docs, n_batches, batch_size, every) = ctx.size((1_000, 30, 20, 12), (40, 7, 5, 3));
    let corpus = harness::corpus(ctx.seed, seed_docs, 100.min(seed_docs / 2));
    let config = durable_config(every);
    let _ = std::fs::remove_dir_all(dir);
    let (mut ah, mut live) = AllHands::builder(ModelTier::Gpt4)
        .config(config.clone())
        .journal(JournalMode::Continue(dir.to_path_buf()))
        .analyze(&corpus.texts, &corpus.labeled, &corpus.predefined)?;
    for batch in harness::fresh_batches(ctx.seed, n_batches, batch_size) {
        live = ah.ingest(&batch)?.frame;
    }
    let covered = n_batches / every * every - 1;
    Ok(Setup {
        corpus,
        config,
        live,
        batches: n_batches,
        covered,
    })
}

/// `recover_latest` (or `recover_at(batch)`) on the journal in `dir`.
fn recover(
    setup: &Setup,
    dir: &Path,
    recorder: RecorderMode,
    at: Option<usize>,
) -> Result<(AllHands, DataFrame), AllHandsError> {
    let c = &setup.corpus;
    let builder = AllHands::builder(ModelTier::Gpt4)
        .config(setup.config.clone())
        .recorder(recorder)
        .journal(JournalMode::Continue(dir.to_path_buf()));
    let builder = match at {
        Some(batch) => builder.recover_at(batch),
        None => builder.recover_latest(),
    };
    builder.analyze(&c.texts, &c.labeled, &c.predefined)
}

/// Recoveries per round (about a second's worth).
const ROUND: usize = 4;

pub fn run(ctx: &RunCtx) -> Outcome {
    let mut out = Outcome {
        round_len: ROUND,
        ..Outcome::default()
    };
    let dir = ctx.scratch.join("journal");
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let built = build(ctx, &dir);
        out.setup_s.push(t.elapsed().as_secs_f64());
        match built {
            Ok(s) => prepared = Some(s),
            Err(e) => {
                out.gate("set-up ingests its batches", false, || e.to_string());
                return out;
            }
        }
    }
    let setup = prepared.expect("SETUP_REPS > 0");
    let files = dir_files(&dir);

    let until = harness::deadline(ctx.pass_seconds());
    let (mut same, mut batches_ok) = (true, true);
    while out.op_ms.is_empty() || Instant::now() < until {
        let t = Instant::now();
        let result = recover(&setup, &dir, RecorderMode::Disabled, None);
        out.attempted += 1;
        match result {
            Ok((ah, frame)) => {
                out.op_ms.push(ms_since(t));
                same &= frame == setup.live;
                batches_ok &= ah.ingested_batches() == setup.batches;
            }
            Err(e) => {
                out.failed += 1;
                out.gate("recover_latest succeeds", false, || e.to_string());
                break;
            }
        }
    }
    out.gate(
        "every recovered frame equals the live session's",
        same,
        || "recover_latest restored a different frame".into(),
    );
    out.gate("recovery reaches the last batch", batches_ok, || {
        format!("expected {} batches recovered", setup.batches)
    });
    out.gate(
        "recovery leaves the journal unchanged",
        dir_files(&dir) == files,
        || "the journal directory changed during recovery".into(),
    );
    out.tail_detail("recover", &out.op_ms.clone());

    if ctx.trace {
        traced_pass(ctx, &setup, &dir, &mut out);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn layer_of(name: &str, _parent: &str) -> Option<&'static str> {
    match name {
        "recover" => Some("core.restore"),
        _ => None,
    }
}

/// Each traced operation is preceded by two replays timed on their own:
/// `Journal::open` of the same directory, and `recover_at` the newest
/// checkpoint (restore without deltas). Their times are laid under the
/// traced `recover_latest` as estimates of the open and of the delta replay.
fn traced_pass(ctx: &RunCtx, setup: &Setup, dir: &Path, out: &mut Outcome) {
    let mut tracer = Tracer::new();
    let mut totals = BTreeMap::new();
    let mut traced_ms = Vec::new();
    let mut same = true;
    let until = harness::deadline(ctx.pass_seconds());
    while traced_ms.is_empty() || Instant::now() < until {
        let t = Instant::now();
        let opened = Journal::open(dir);
        let open_ms = ms_since(t);
        drop(opened);
        let t = Instant::now();
        let at_ckpt = recover(setup, dir, RecorderMode::Disabled, Some(setup.covered));
        let no_delta_ms = ms_since(t);
        drop(at_ckpt);

        let request = traced_ms.len() as u64;
        let op = tracer.start("recover_latest", UNATTRIBUTED, None, request);
        let result = recover(setup, dir, RecorderMode::Enabled, None);
        let ms = tracer.end(op);
        out.attempted += 1;
        let Ok((ah, frame)) = result else {
            out.failed += 1;
            break;
        };
        traced_ms.push(ms);
        same &= frame == setup.live;
        let report = ah.run_report();
        harness::add_counters(&mut totals, &report);
        for node in &report.spans {
            tracer.graft(op, node, layer_of);
        }
        tracer.estimate(op, "Journal::open (replayed)", "journal.open", open_ms);
        tracer.estimate(
            op,
            "delta replay (recover_latest − recover_at)",
            "core.replay",
            ms - no_delta_ms,
        );
    }
    out.gate("traced recovery equals the live session", same, || {
        "traced recover_latest diverged".into()
    });
    harness::common_layers(out, &totals, traced_ms.len() as f64);
    out.layer(
        "trace.overhead_share",
        harness::overhead_share(&out.op_ms, &traced_ms),
    );
    harness::share_layers(out, &tracer);
    out.trace = Some(tracer.to_json(harness::trace_header(ctx, "recover-latest")));
}
