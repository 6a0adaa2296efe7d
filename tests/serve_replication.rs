//! Serving & replication contracts (ISSUE 9):
//!
//! - A follower answering `ask()` while K entries behind the leader
//!   reports exactly K in the response's `lag` field, and the serve layer
//!   tracks the same number under `serve.replication_lag`.
//! - Killing the replication stream at *every* entry boundary and
//!   reconnecting converges the follower back to the leader
//!   byte-identically: same chain position, same run fingerprint, same
//!   WAL bytes, byte-identical answers.
//! - Replica sessions refuse writes with a typed `ReadOnly` error and
//!   keep serving reads.

use allhands::datasets::{generate_n, DatasetKind};
use allhands::prelude::*;
use allhands::serve::{Corpus, ServeOptions, ServeClient, Server};
use std::path::{Path, PathBuf};
use std::time::Duration;

const QUESTIONS: [&str; 2] = [
    "How many feedback entries are there?",
    "Which topic appears most frequently?",
];

fn corpus() -> (Vec<String>, Vec<LabeledExample>, Vec<String>) {
    let records = generate_n(DatasetKind::GoogleStoreApp, 16, 23);
    let texts: Vec<String> = records.iter().map(|r| r.text.clone()).collect();
    let labeled: Vec<LabeledExample> = records
        .iter()
        .take(10)
        .map(|r| LabeledExample { text: r.text.clone(), label: r.label.clone() })
        .collect();
    (texts, labeled, vec!["bug".to_string(), "crash".to_string()])
}

fn batches() -> Vec<Vec<String>> {
    let b1: Vec<String> = generate_n(DatasetKind::GoogleStoreApp, 5, 101)
        .iter()
        .map(|r| r.text.clone())
        .collect();
    let b2: Vec<String> = [
        "battery drains overnight even when idle",
        "phone gets hot and battery dies fast since update",
        "standby battery drain is terrible now",
    ]
    .map(String::from)
    .to_vec();
    let b3: Vec<String> = [
        "dark mode please my eyes hurt at night",
        "would love a dark mode option",
    ]
    .map(String::from)
    .to_vec();
    vec![b1, b2, b3]
}

fn tuned() -> AllHandsConfig {
    let mut config = AllHandsConfig::default();
    config.ingest.pending_threshold = 6;
    config.ingest.ivf_partition_docs = 8;
    config
}

/// JSON integers parse back as `I64` even when serialized from a `u64`.
fn int_of(v: &serde_json::Value) -> u64 {
    match v {
        serde_json::Value::U64(n) => *n,
        serde_json::Value::I64(n) if *n >= 0 => *n as u64,
        other => panic!("expected a non-negative integer, got {other:?}"),
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("serve-repl-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("stale scratch dir");
    }
    dir
}

/// Build a replica session bootstrapped from `bundle` into `dir`.
fn fresh_follower(bundle: BootstrapBundle, dir: &Path) -> AllHands {
    let (texts, labeled, predefined) = corpus();
    let (flw, _frame) = AllHands::builder(ModelTier::Gpt4)
        .config(tuned())
        .journal(JournalMode::Continue(dir.to_path_buf()))
        .bootstrap(bundle)
        .replica()
        .analyze(&texts, &labeled, &predefined)
        .expect("follower bootstrap failed");
    flw
}

/// Reopen a killed follower from its own journal directory.
fn reopen_follower(dir: &Path) -> AllHands {
    let (texts, labeled, predefined) = corpus();
    let (flw, _frame) = AllHands::builder(ModelTier::Gpt4)
        .config(tuned())
        .journal(JournalMode::Continue(dir.to_path_buf()))
        .recover_latest()
        .replica()
        .analyze(&texts, &labeled, &predefined)
        .expect("follower reopen after kill failed");
    flw
}

#[test]
fn kill_at_every_entry_boundary_reconnects_and_converges_byte_identically() {
    let leader_dir = scratch_dir("kill-leader");
    let (texts, labeled, predefined) = corpus();
    let (mut leader, _frame) = AllHands::builder(ModelTier::Gpt4)
        .config(tuned())
        .journal(JournalMode::Continue(leader_dir.clone()))
        .analyze(&texts, &labeled, &predefined)
        .expect("leader run failed");
    let bundle = leader.export_bootstrap().expect("leader export failed");

    // The leader moves on: an ingest stream plus journaled answers.
    for batch in batches() {
        leader.ingest(&batch).expect("leader ingest failed");
    }
    let leader_answers: Vec<String> = QUESTIONS
        .iter()
        .map(|q| leader.ask(q).expect("leader ask failed").render())
        .collect();
    let (leader_seq, leader_chain) = leader.chain_position().expect("leader not journaled");
    let leader_fp = leader.run_fingerprint().expect("leader has no fingerprint").to_string();

    // The full tail a follower must replay: everything past the bundle.
    let base = bundle.upto_seq;
    let tail = leader
        .journal()
        .expect("leader journal missing")
        .tail_after(base)
        .expect("leader tail read failed");
    assert!(
        tail.len() >= batches().len() + QUESTIONS.len(),
        "expected one entry per batch and question, got {}",
        tail.len()
    );

    let leader_wal = std::fs::read(leader_dir.join("allhands.journal")).unwrap();

    // Kill the stream after k replicated entries, for every k — including
    // k=0 (killed before anything arrived) and k=len (killed after the
    // stream drained). Reconnect must resume from the replica's own chain
    // position and converge byte-identically.
    for k in 0..=tail.len() {
        let dir = scratch_dir(&format!("kill-{k}"));
        let mut flw = fresh_follower(bundle.clone(), &dir);
        let partial = flw.apply_tail(&tail[..k]).expect("pre-kill replay failed");
        assert_eq!(partial.next_seq, base + k as u64, "kill point {k} landed wrong");
        drop(flw); // the kill: session gone mid-stream, journal on disk

        let mut flw = reopen_follower(&dir);
        let (cur, _) = flw.chain_position().expect("reopened follower not journaled");
        assert_eq!(cur, base + k as u64, "reopen lost replicated entries at kill point {k}");
        let report = flw
            .apply_tail(&tail[(cur - base) as usize..])
            .expect("post-reconnect replay failed");

        assert_eq!(
            (report.next_seq, report.chain_head.clone()),
            (leader_seq, leader_chain.clone()),
            "kill point {k}: follower chain diverged from leader"
        );
        assert_eq!(
            flw.run_fingerprint(),
            Some(leader_fp.as_str()),
            "kill point {k}: follower run fingerprint diverged"
        );
        let follower_wal = std::fs::read(dir.join("allhands.journal")).unwrap();
        assert_eq!(
            leader_wal, follower_wal,
            "kill point {k}: follower WAL is not byte-identical to the leader's"
        );
        // The reopen kept every answer replicated before the kill: before
        // serving any read, the follower holds the leader's history.
        assert_eq!(
            flw.agent_mut().history(),
            leader.agent_mut().history(),
            "kill point {k}: replicated answer history diverged"
        );
        // Replicated state answers byte-identically to the leader.
        for (q, expected) in QUESTIONS.iter().zip(&leader_answers) {
            let got = flw.ask(q).expect("replica ask failed").render();
            assert_eq!(&got, expected, "kill point {k}: answer to {q:?} diverged");
        }
        drop(flw);
        std::fs::remove_dir_all(&dir).ok();
    }
    drop(leader);
    std::fs::remove_dir_all(&leader_dir).ok();
}

#[test]
fn replica_sessions_refuse_writes_and_count_reads() {
    let leader_dir = scratch_dir("refuse-leader");
    let follower_dir = scratch_dir("refuse-follower");
    let (texts, labeled, predefined) = corpus();
    let (leader, _frame) = AllHands::builder(ModelTier::Gpt4)
        .config(tuned())
        .journal(JournalMode::Continue(leader_dir.clone()))
        .analyze(&texts, &labeled, &predefined)
        .expect("leader run failed");
    let bundle = leader.export_bootstrap().expect("leader export failed");
    drop(leader);

    let (mut flw, _frame) = AllHands::builder(ModelTier::Gpt4)
        .config(tuned())
        .journal(JournalMode::Continue(follower_dir.clone()))
        .bootstrap(bundle)
        .replica()
        .recorder(RecorderMode::Enabled)
        .analyze(&texts, &labeled, &predefined)
        .expect("follower bootstrap failed");
    assert!(flw.is_replica());

    // Writes are typed refusals, not panics and not silent no-ops.
    match flw.ingest(&batches()[0]) {
        Err(AllHandsError::ReadOnly(m)) => {
            assert!(m.contains("leader"), "refusal should point at the leader: {m}")
        }
        other => panic!("replica ingest must refuse with ReadOnly, got {other:?}"),
    }
    match flw.retract(0) {
        Err(AllHandsError::ReadOnly(_)) => {}
        other => panic!("replica retract must refuse with ReadOnly, got {other:?}"),
    }

    // Reads keep serving, and are counted as replica reads — not as the
    // replicated QA ordinal, which must stay in lockstep with the leader.
    for q in QUESTIONS {
        let r = flw.ask(q).expect("replica ask failed");
        assert!(r.error.is_none(), "replica answer errored: {:?}", r.error);
    }
    let report = flw.run_report();
    assert_eq!(report.counter("qa.replica_reads"), QUESTIONS.len() as u64);
    drop(flw);
    std::fs::remove_dir_all(&leader_dir).ok();
    std::fs::remove_dir_all(&follower_dir).ok();
}

#[test]
fn lagging_follower_reports_its_lag_and_drains_after_resume() {
    let socket = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("serve-lag-{}.sock", std::process::id()));
    let data_dir = scratch_dir("lag-data");
    let corpus = Corpus::synthetic(16, 23);
    let opts = ServeOptions { followers: 2, config: tuned(), ..ServeOptions::default() };
    let server = Server::start(&socket, &data_dir, &corpus, opts).expect("server start failed");
    let mut client = ServeClient::connect(&socket).expect("client connect failed");

    // Freeze the appliers, then push K write batches through the leader.
    client.pause_replication().expect("pause failed");
    let seq_before = {
        let status = client.status().expect("status failed");
        int_of(&status["leader"]["seq"])
    };
    let mut seq_after = seq_before;
    for batch in batches() {
        let rep = client.ingest(&batch).expect("ingest failed");
        seq_after = rep.seq;
    }
    let expected_lag = seq_after - seq_before;
    assert!(expected_lag >= batches().len() as u64, "each batch should append an entry");

    // Both followers serve while behind, reporting exactly how far.
    for _ in 0..2 {
        let reply = client.ask(QUESTIONS[0]).expect("ask on lagging follower failed");
        assert_eq!(
            reply.lag, expected_lag,
            "replica {} under-/over-reported its lag",
            reply.replica
        );
        assert!(reply.error.is_none(), "stale read errored: {:?}", reply.error);
    }
    // The serve layer tracked the same number.
    let metrics = client.metrics().expect("metrics failed").to_string();
    assert!(
        metrics.contains("serve.replication_lag"),
        "serve.replication_lag missing from metrics: {metrics}"
    );

    // Resume: followers drain to the leader's head and agree on the chain
    // and fingerprint; served lag returns to 0.
    client.resume_replication().expect("resume failed");
    let status = client
        .wait_replicated(Duration::from_secs(30))
        .expect("followers never drained after resume");
    let leader_chain = status["leader"]["chain"].to_string();
    let leader_fp = status["leader"]["fingerprint"].to_string();
    match &status["followers"] {
        serde_json::Value::Array(flws) => {
            assert_eq!(flws.len(), 2);
            for f in flws {
                assert_eq!(f["chain"].to_string(), leader_chain, "follower chain diverged");
                assert_eq!(f["fingerprint"].to_string(), leader_fp, "fingerprint diverged");
                assert_eq!(int_of(&f["lag"]), 0);
            }
        }
        other => panic!("status followers is not an array: {other:?}"),
    }
    let reply = client.ask(QUESTIONS[1]).expect("post-drain ask failed");
    assert_eq!(reply.lag, 0, "drained follower still reports lag");

    client.shutdown().expect("shutdown failed");
    server.run_until_shutdown();
    std::fs::remove_dir_all(&data_dir).ok();
    std::fs::remove_file(&socket).ok();
}
