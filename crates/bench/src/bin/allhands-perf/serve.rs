//! `serve-mixed`: reads beside writes on the served session. A server with
//! one follower runs over `Corpus::synthetic(1000, seed)`. Connection 1 is
//! an open loop at 100 requests/s — three asks, then one similarity search
//! — with every request timed from its scheduled send time. Asks cycle over
//! the 38 paper questions whose reference programs name only columns of the
//! analyzed frame. Connection 2 ingests 25 new documents, then pauses 250
//! ms, in a loop. Asks take the follower's write lock, searches its read
//! lock, and each replicated batch holds the write lock for `apply_tail` and
//! `prepare_search`, so a gain on one read that costs the other shows.

use crate::harness::{self, ms_since, Outcome, RunCtx, SETUP_REPS};
use crate::stats;
use allhands_core::{AllHands, JournalMode};
use allhands_datasets::{all_questions, dataset_frame, generate_n, DatasetKind};
use allhands_llm::ModelTier;
use allhands_serve::{Corpus, ServeClient, ServeError, ServeOptions, Server};
use serde_json::Value;
use std::path::Path;
use std::time::{Duration, Instant};

/// Columns of the frame `analyze` produces; questions naming any other
/// dataset column cannot be answered by a served session.
const ANALYZED_COLUMNS: [&str; 6] = ["id", "text", "label", "sentiment", "topics", "text_len"];

/// Asked after the load to check the follower's row count.
const COUNT_QUESTION: &str = "How many feedback entries are there?";

/// Reads per cycle of the open loop; the last one is a search.
const CYCLE: usize = 4;

struct Plan {
    corpus: Corpus,
    rate: f64,
    pause: Duration,
    questions: Vec<&'static str>,
    searches: Vec<String>,
    batches: Vec<Vec<String>>,
}

/// Paper questions answerable on the analyzed frame: every dataset column
/// their reference program names is an analyzed column.
fn served_questions() -> Vec<&'static str> {
    let dataset_columns: Vec<String> = [
        DatasetKind::GoogleStoreApp,
        DatasetKind::ForumPost,
        DatasetKind::MSearch,
    ]
    .iter()
    .flat_map(|&k| {
        let frame = dataset_frame(k, &generate_n(k, 1, 0));
        frame
            .columns()
            .iter()
            .map(|c| c.name().to_string())
            .collect::<Vec<_>>()
    })
    .collect();
    all_questions()
        .into_iter()
        .filter(|q| {
            q.reference_aql
                .split(|ch: char| !(ch.is_alphanumeric() || ch == '_'))
                .filter(|w| dataset_columns.iter().any(|c| c == w))
                .all(|w| ANALYZED_COLUMNS.contains(&w))
        })
        .map(|q| q.text)
        .collect()
}

/// What the two connections saw.
#[derive(Default)]
struct Load {
    /// `(is_search, ms from scheduled send to reply)` per read.
    reads: Vec<(bool, f64)>,
    /// How late each read was sent, ms.
    late_ms: Vec<f64>,
    /// Replica lag (journal entries) reported with each ask.
    lags: Vec<f64>,
    ack_ms: Vec<f64>,
    /// Ack latency plus pause: the writer's cycle, ms.
    write_cycle_ms: Vec<f64>,
    docs_ingested: usize,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Load {
    fn record<T>(&mut self, r: Result<T, ServeError>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            if self.errors.len() < 3 {
                self.errors.push(e.to_string());
            }
        })
        .ok()
    }
}

pub fn run(ctx: &RunCtx) -> Outcome {
    let (docs, rate, batch_size, pause_ms) = ctx.size((1_000, 100, 25, 250), (24, 10, 3, 100));
    // A round is one second of the schedule.
    let mut out = Outcome {
        round_len: rate,
        ..Outcome::default()
    };
    let mut server = None;
    let mut plan = None;
    for k in 0..SETUP_REPS {
        if let Some((previous, _)) = server.take() {
            Server::shutdown(previous);
        }
        let t = Instant::now();
        let corpus = Corpus::synthetic(docs, ctx.seed);
        let batches = harness::fresh_batches(
            ctx.seed,
            (ctx.seconds * 1e3 / pause_ms as f64) as usize + 2,
            batch_size,
        );
        let searches = harness::fresh_batches(ctx.seed ^ 1, 1, 64).remove(0);
        let socket = ctx.scratch.join(format!("s{k}.sock"));
        let opts = ServeOptions {
            followers: 1,
            ..ServeOptions::default()
        };
        match Server::start(
            &socket,
            &ctx.scratch.join(format!("data-{k}")),
            &corpus,
            opts,
        ) {
            Ok(s) => server = Some((s, socket)),
            Err(e) => {
                out.gate("server starts", false, || e.to_string());
                return out;
            }
        }
        out.setup_s.push(t.elapsed().as_secs_f64());
        let pause = Duration::from_millis(pause_ms);
        plan = Some(Plan {
            corpus,
            rate: rate as f64,
            pause,
            questions: served_questions(),
            searches,
            batches,
        });
    }
    let (server, socket) = server.expect("SETUP_REPS > 0");
    let plan = plan.expect("SETUP_REPS > 0");
    out.notes
        .push(format!("{} served questions", plan.questions.len()));

    let ping_p50 = if ctx.trace {
        idle_ping_ms(&socket)
    } else {
        None
    };
    let load = run_load(&socket, &plan, ctx.pass_seconds());
    out.attempted += load.attempted;
    out.failed += load.failed;
    out.gate("served requests succeed", load.failed == 0, || {
        load.errors.join("; ")
    });
    out.op_ms = load.reads.iter().map(|&(_, ms)| ms).collect();
    let of = |search: bool| -> Vec<f64> {
        load.reads
            .iter()
            .filter(|r| r.0 == search)
            .map(|r| r.1)
            .collect()
    };
    out.latency_detail("serve_ask", &of(false));
    out.latency_detail("serve_search", &of(true));
    out.latency_detail("serve_ingest", &load.ack_ms);
    let period_ms = 1e3 / plan.rate;
    let late = tail_or_max(&load.late_ms);
    out.detail("gen_late_tail_ms", "ms", late, load.late_ms.len());
    out.gate(
        "open-loop generator keeps its schedule",
        late <= period_ms,
        || {
            format!(
                "sends ran {late:.2} ms late at the tail, more than the {period_ms:.2} ms period"
            )
        },
    );
    verify(&socket, &plan, &load, &mut out);

    if ctx.trace {
        let metrics = ServeClient::connect(&socket).and_then(|mut c| c.metrics());
        let depth = metrics.map_or(0.0, |m| {
            as_f64(&m["report"]["volatile"]["histograms"]["serve.queue_depth"]["max"])
        });
        out.layer("serve.queue_depth_max", depth);
        out.layer("serve.read_lag_tail_entries", tail_or_max(&load.lags));
        out.layer("serve.gen_late_tail_share", late / period_ms);
        let read_p50 = stats::median(&out.op_ms);
        if let Some(ping) = ping_p50 {
            out.layer("serve.transport_share", ping / read_p50);
        }
        probes(ctx, &plan, &load, read_p50, &mut out);
    }
    server.shutdown();
    out
}

/// The highest supported tail percentile, or the maximum of a sample too
/// small to support one.
fn tail_or_max(samples: &[f64]) -> f64 {
    stats::summarize(samples)
        .and_then(|s| s.tail.map(|(_, v)| v))
        .unwrap_or_else(|| samples.iter().copied().fold(0.0, f64::max))
}

fn as_f64(v: &Value) -> f64 {
    match v {
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        Value::F64(x) => *x,
        _ => 0.0,
    }
}

/// Median round trip of `ping` on an idle server: the transport's share.
fn idle_ping_ms(socket: &Path) -> Option<f64> {
    let mut client = ServeClient::connect(socket).ok()?;
    let mut ms = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = Instant::now();
        client.ping().ok()?;
        ms.push(ms_since(t));
    }
    Some(stats::median(&ms))
}

fn run_load(socket: &Path, plan: &Plan, seconds: f64) -> Load {
    let (Ok(mut reader), Ok(mut writer)) =
        (ServeClient::connect(socket), ServeClient::connect(socket))
    else {
        let mut load = Load::default();
        load.record::<()>(Err(ServeError::Protocol("could not connect".into())));
        return load;
    };
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(seconds);
    let period = Duration::from_secs_f64(1.0 / plan.rate);
    std::thread::scope(|scope| {
        let writes = scope.spawn(|| {
            let mut load = Load::default();
            for batch in &plan.batches {
                if Instant::now() >= end {
                    break;
                }
                let t = Instant::now();
                let acked = writer.ingest(batch);
                let ack = ms_since(t);
                if let Some(summary) = load.record(acked) {
                    load.ack_ms.push(ack);
                    load.docs_ingested += summary.new_rows as usize;
                }
                std::thread::sleep(plan.pause);
                load.write_cycle_ms.push(ms_since(t));
            }
            load
        });
        let mut load = Load::default();
        for i in 0.. {
            let due = t0 + period * i as u32;
            if due >= end {
                break;
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            load.late_ms
                .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
            let cycle = i / CYCLE;
            let search = i % CYCLE == CYCLE - 1;
            if search {
                let text = &plan.searches[cycle % plan.searches.len()];
                let hits = reader.search(text, 5);
                if load.record(hits).is_some() {
                    load.reads.push((true, ms_since(due)));
                }
            } else {
                let q = plan.questions[(cycle * (CYCLE - 1) + i % CYCLE) % plan.questions.len()];
                let reply = reader.ask(q);
                if let Some(reply) = load.record(reply) {
                    load.reads.push((false, ms_since(due)));
                    load.lags.push(reply.lag as f64);
                }
            }
        }
        let writes = writes.join().unwrap_or_else(|_| {
            let mut failed = Load::default();
            failed.record::<()>(Err(ServeError::Protocol("ingest thread panicked".into())));
            failed
        });
        load.ack_ms = writes.ack_ms;
        load.write_cycle_ms = writes.write_cycle_ms;
        load.docs_ingested = writes.docs_ingested;
        load.attempted += writes.attempted;
        load.failed += writes.failed;
        load.errors.extend(writes.errors);
        load
    })
}

/// After the load: the follower drains to the leader's chain with replication
/// unbroken, and holds exactly the seed plus the ingested rows.
fn verify(socket: &Path, plan: &Plan, load: &Load, out: &mut Outcome) {
    let mut client = match ServeClient::connect(socket) {
        Ok(c) => c,
        Err(e) => return out.gate("status connection opens", false, || e.to_string()),
    };
    let status = match client.wait_replicated(Duration::from_secs(60)) {
        Ok(s) => s,
        Err(e) => return out.gate("follower drains", false, || e.to_string()),
    };
    let leader = &status["leader"];
    let converged = match &status["followers"] {
        Value::Array(fs) => {
            !fs.is_empty()
                && fs.iter().all(|f| {
                    f["chain"] == leader["chain"] && f["fingerprint"] == leader["fingerprint"]
                })
        }
        _ => false,
    };
    out.gate("follower chain equals leader chain", converged, || {
        status.to_string()
    });
    out.gate(
        "replication is not broken",
        status["broken"] == Value::Null,
        || status["broken"].to_string(),
    );
    let rows = plan.corpus.texts.len() + load.docs_ingested;
    let answer = client
        .ask(COUNT_QUESTION)
        .map(|r| r.answer)
        .unwrap_or_default();
    out.gate(
        "follower holds seed plus ingested rows",
        answer.contains(&format!("Result: {rows}")),
        || format!("expected {rows} rows, follower answered {answer:?}"),
    );
}

/// In-process probes of the layers under a served read and a replicated
/// write: a replica session answering the same reads with nothing else
/// running, and one leader→replica replication step per batch, timed around
/// `ingest`, `tail_after` + `apply_tail` + `prepare_search`.
fn probes(ctx: &RunCtx, plan: &Plan, load: &Load, read_p50: f64, out: &mut Outcome) {
    let c = &plan.corpus;
    let leader_dir = ctx.scratch.join("probe-leader");
    let replica_dir = ctx.scratch.join("probe-replica");
    let built = AllHands::builder(ModelTier::Gpt4)
        .journal(JournalMode::Continue(leader_dir))
        .analyze(&c.texts, &c.labeled, &c.predefined)
        .and_then(|(leader, _)| {
            let bundle = leader.export_bootstrap()?;
            let (mut replica, _) = AllHands::builder(ModelTier::Gpt4)
                .journal(JournalMode::Continue(replica_dir))
                .bootstrap(bundle)
                .replica()
                .analyze(&c.texts, &c.labeled, &c.predefined)?;
            replica.prepare_search()?;
            Ok((leader, replica))
        });
    let (mut leader, mut replica) = match built {
        Ok(pair) => pair,
        Err(e) => return out.gate("probe sessions build", false, || e.to_string()),
    };
    let reads = out.op_ms.len().clamp(CYCLE, 400);
    let mut read_ms = Vec::with_capacity(reads);
    for i in 0..reads {
        let cycle = i / CYCLE;
        let t = Instant::now();
        if i % CYCLE == CYCLE - 1 {
            let _ = replica.search_similar_prepared(&plan.searches[cycle % plan.searches.len()], 5);
        } else {
            let _ = replica
                .ask(plan.questions[(cycle * (CYCLE - 1) + i % CYCLE) % plan.questions.len()]);
        }
        read_ms.push(ms_since(t));
    }
    out.layer(
        "core.replica_read_share",
        stats::median(&read_ms) / read_p50,
    );

    let (mut ingest_ms, mut hold_ms) = (Vec::new(), Vec::new());
    let batches = load.ack_ms.len().clamp(1, 12);
    for batch in plan.batches.iter().take(batches) {
        let cursor = leader.chain_position().map_or(0, |(seq, _)| seq);
        let t = Instant::now();
        let ingested = leader.ingest(batch);
        ingest_ms.push(ms_since(t));
        let tail = leader.journal().map(|j| j.tail_after(cursor));
        let (Ok(_), Some(Ok(entries))) = (ingested, tail) else {
            return out.gate("probe replication step succeeds", false, || {
                "leader ingest or tail failed".into()
            });
        };
        let t = Instant::now();
        let applied = replica
            .apply_tail(&entries)
            .and_then(|_| replica.prepare_search());
        hold_ms.push(ms_since(t));
        if let Err(e) = applied {
            return out.gate("probe replication step succeeds", false, || e.to_string());
        }
    }
    out.layer(
        "serve.lock_hold_share",
        stats::mean(&hold_ms) / stats::mean(&load.write_cycle_ms),
    );
    out.layer(
        "core.leader_ingest_share",
        stats::median(&ingest_ms) / stats::median(&load.ack_ms),
    );
    let attributed = out
        .layers
        .get("serve.transport_share")
        .copied()
        .unwrap_or(0.0)
        + out.layers["core.replica_read_share"];
    out.layer("unattributed_share", 1.0 - attributed);

    let mut doc = harness::trace_header(ctx, "serve-mixed");
    doc.insert("served_read_p50_ms".into(), read_p50.into());
    doc.insert("replica_read_ms".into(), read_ms.into());
    doc.insert("leader_ingest_ms".into(), ingest_ms.into());
    doc.insert("replica_apply_ms".into(), hold_ms.into());
    doc.insert("write_cycle_ms".into(), load.write_cycle_ms.clone().into());
    out.trace = Some(Value::Object(doc));
}
