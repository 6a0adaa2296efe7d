//! One apply path: every way a session can reach a journal prefix lands on
//! the same state as the leader that wrote it.
//!
//! A journaled leader ingests six batches under a checkpoint policy of
//! every 2 batches, keep 2, and asks one question after batches 1 and 4.
//! After every prefix of n batches (n = 0..=6) three more sessions must
//! hold exactly the leader's state:
//!
//! - **resume**: a fresh session over a copy of the leader's journal,
//!   re-fed the same batches and questions;
//! - **recover**: `recover_latest()` over a copy of the leader's journal;
//! - **follower**: a replica bootstrapped from the leader before batch 0
//!   and kept current with `apply_tail`.
//!
//! Compared: the frame, `ingested_batches()`, the `search_similar` top-5
//! for a fixed query, and the chain position; the follower also on agent
//! history length. A resume recomputes what compaction dropped and appends
//! it again, so its chain matches the leader's only while nothing has been
//! compacted; past that the run at 8 threads must reproduce it exactly.

use allhands::datasets::{generate_n, DatasetKind};
use allhands::journal::vfs::{RealVfs, VfsFile};
use allhands::prelude::*;
use allhands::query::RtValue;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

const CHECKPOINT_EVERY: usize = 2;
/// `(batch ordinal, question)`: each question is asked right after that batch.
const ASKS: [(usize, &str); 2] = [
    (1, "How many feedback entries are there?"),
    (4, "Which topic appears most frequently?"),
];
const QUERY: &str = "battery drains fast";

fn corpus() -> (Vec<String>, Vec<LabeledExample>, Vec<String>) {
    let records = generate_n(DatasetKind::GoogleStoreApp, 30, 23);
    let texts: Vec<String> = records.iter().map(|r| r.text.clone()).collect();
    let labeled: Vec<LabeledExample> = records
        .iter()
        .take(16)
        .map(|r| LabeledExample { text: r.text.clone(), label: r.label.clone() })
        .collect();
    (texts, labeled, vec!["bug".to_string(), "crash".to_string()])
}

/// Six batches: familiar feedback around two themed pairs. Each pair fills
/// the pending pool, so its second batch's flush coins a topic and
/// rewrites the topics of the first batch's rows.
fn batches() -> Vec<Vec<String>> {
    let familiar = |seed: u64| -> Vec<String> {
        generate_n(DatasetKind::GoogleStoreApp, 3, seed).iter().map(|r| r.text.clone()).collect()
    };
    let themed = |texts: [&str; 3]| -> Vec<String> { texts.map(String::from).to_vec() };
    vec![
        familiar(101),
        themed([
            "battery drains overnight even when idle",
            "phone gets hot and battery dies fast since update",
            "standby battery drain is terrible now",
        ]),
        themed([
            "battery usage doubled after the last version",
            "charging takes forever and battery drains quickly",
            "battery drain while the app runs in background",
        ]),
        themed([
            "dark mode please my eyes hurt at night",
            "would love a dark mode option",
            "please add dark mode theme",
        ]),
        themed([
            "night theme dark mode when",
            "the white background burns please dark mode",
            "dark mode dark mode dark mode",
        ]),
        familiar(103),
    ]
}

fn config() -> AllHandsConfig {
    let mut config = AllHandsConfig::default();
    config.ingest.pending_threshold = 6;
    config.ingest.ivf_partition_docs = 8;
    config.ingest.ivf_staleness = 0.2;
    config.checkpoint = CheckpointPolicy { every_n_batches: CHECKPOINT_EVERY, keep_last_k: 2 };
    config
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("apply-convergence-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("stale scratch dir");
    }
    dir
}

/// Copy a live journal directory, minus its LOCK.
fn copy_journal(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let path = entry.unwrap().path();
        if path.is_file() && path.file_name().is_some_and(|n| n != "LOCK") {
            std::fs::copy(&path, dst.join(path.file_name().unwrap())).unwrap();
        }
    }
}

/// The real filesystem, with every byte appended to the WAL also kept in
/// memory: compaction drops lines from the leader's file that a follower
/// has not pulled yet, and the follower must still get them verbatim.
struct TeeVfs(Arc<Mutex<Vec<u8>>>);

struct TeeFile {
    inner: Box<dyn VfsFile>,
    tee: Arc<Mutex<Vec<u8>>>,
}

impl VfsFile for TeeFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.inner.write_all(buf)?;
        self.tee.lock().unwrap().extend_from_slice(buf);
        Ok(())
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.inner.sync_all()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.inner.read_all()
    }
}

impl Vfs for TeeVfs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        RealVfs.create_dir_all(dir)
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(TeeFile { inner: RealVfs.open_append(path)?, tee: Arc::clone(&self.0) }))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        RealVfs.create(path)
    }
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        RealVfs.create_new(path)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        RealVfs.read(path)
    }
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        RealVfs.read_dir(dir)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealVfs.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealVfs.remove_file(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        RealVfs.sync_dir(dir)
    }
}

/// What must agree across sessions at one journal prefix.
#[derive(Debug, PartialEq)]
struct Observed {
    frame: String,
    batches: usize,
    top5: Vec<(u64, f32)>,
    chain: (u64, String),
}

fn observe(ah: &mut AllHands) -> Observed {
    let frame = match ah.agent_mut().session_mut().get("feedback") {
        Some(RtValue::Frame(frame)) => frame.to_table_string(200),
        other => panic!("agent holds no feedback frame: {other:?}"),
    };
    Observed {
        frame,
        batches: ah.ingested_batches(),
        top5: ah.search_similar(QUERY, 5).expect("search failed"),
        chain: ah.chain_position().expect("session not journaled"),
    }
}

fn open(dir: &Path, recover: bool) -> AllHands {
    let (texts, labeled, predefined) = corpus();
    let mut builder = AllHands::builder(ModelTier::Gpt4)
        .config(config())
        .journal(JournalMode::Continue(dir.to_path_buf()));
    if recover {
        builder = builder.recover_latest();
    }
    builder.analyze(&texts, &labeled, &predefined).expect("session open failed").0
}

/// Feed batches `from..to` (and the questions due after them) to `ah`.
fn feed(ah: &mut AllHands, from: usize, to: usize) {
    let all = batches();
    for (b, batch) in all.iter().enumerate().take(to).skip(from) {
        ah.ingest(batch).expect("ingest failed");
        for (_, q) in ASKS.iter().filter(|(after, _)| *after == b) {
            let r = ah.ask(q).expect("ask failed");
            assert!(r.error.is_none(), "{q:?} errored: {:?}", r.error);
        }
    }
}

/// Drive the leader and all three followers through every prefix and
/// return the per-prefix observations, for cross-thread-count comparison.
fn converge(tag: &str) -> Vec<(Observed, Observed)> {
    let leader_dir = scratch_dir(&format!("{tag}-leader"));
    let follower_dir = scratch_dir(&format!("{tag}-follower"));
    let (texts, labeled, predefined) = corpus();
    let wal = Arc::new(Mutex::new(Vec::new()));
    let (mut leader, _frame) = AllHands::builder(ModelTier::Gpt4)
        .config(config())
        .journal(JournalMode::Continue(leader_dir.clone()))
        .vfs(Arc::new(TeeVfs(Arc::clone(&wal))))
        .analyze(&texts, &labeled, &predefined)
        .expect("leader run failed");
    let (mut follower, _frame) = AllHands::builder(ModelTier::Gpt4)
        .config(config())
        .journal(JournalMode::Continue(follower_dir.clone()))
        .bootstrap(leader.export_bootstrap().expect("leader export failed"))
        .replica()
        .analyze(&texts, &labeled, &predefined)
        .expect("follower bootstrap failed");

    let mut out = Vec::new();
    for n in 0..=batches().len() {
        if n > 0 {
            feed(&mut leader, n - 1, n);
        }
        let reference = observe(&mut leader);
        assert_eq!(reference.batches, n);

        // Follower: apply every WAL line the leader wrote since its cursor.
        let lines: Vec<String> = String::from_utf8(wal.lock().unwrap().clone())
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        let (cursor, _) = follower.chain_position().unwrap();
        let tail: Vec<TailEntry> = (cursor..reference.chain.0)
            .map(|seq| TailEntry { seq, line: lines[seq as usize].clone() })
            .collect();
        follower.apply_tail(&tail).expect("apply_tail failed");
        assert_eq!(observe(&mut follower), reference, "follower diverged after {n} batch(es)");
        assert_eq!(
            follower.agent_mut().history().len(),
            leader.agent_mut().history().len(),
            "follower answer history diverged after {n} batch(es)"
        );

        // Recover: a copy of the leader's journal, restored to its latest
        // state without writing.
        let dir = scratch_dir(&format!("{tag}-recover-{n}"));
        copy_journal(&leader_dir, &dir);
        let mut recovered = open(&dir, true);
        assert_eq!(observe(&mut recovered), reference, "recover diverged after {n} batch(es)");
        drop(recovered);
        std::fs::remove_dir_all(&dir).ok();

        // Resume: a copy of the leader's journal, re-fed from the start.
        let dir = scratch_dir(&format!("{tag}-resume-{n}"));
        copy_journal(&leader_dir, &dir);
        let mut resumed = open(&dir, false);
        feed(&mut resumed, 0, n);
        let got = observe(&mut resumed);
        assert_eq!(
            (&got.frame, got.batches, &got.top5),
            (&reference.frame, reference.batches, &reference.top5),
            "resume diverged after {n} batch(es)"
        );
        if n < CHECKPOINT_EVERY {
            assert_eq!(got.chain, reference.chain, "uncompacted resume appended after {n}");
        }
        drop(resumed);
        std::fs::remove_dir_all(&dir).ok();
        out.push((reference, got));
    }
    drop(leader);
    drop(follower);
    std::fs::remove_dir_all(&leader_dir).ok();
    std::fs::remove_dir_all(&follower_dir).ok();
    out
}

#[test]
fn resume_recover_and_follower_converge_on_every_prefix_at_1_and_8_threads() {
    let t1 = allhands::par::with_threads(1, || converge("t1"));
    let t8 = allhands::par::with_threads(8, || converge("t8"));
    assert_eq!(t1, t8, "apply paths must not depend on thread count");
}
