//! allhands-serve — a long-lived leader/follower session server over the
//! AllHands facade.
//!
//! The paper frames AllHands as an "ask me anything" interface for whole
//! product teams; one in-process session does not serve that. This crate
//! turns a journaled session into a small replicated service:
//!
//! - **One leader, N followers.** The leader is the only session that
//!   writes: `ingest` batches are admitted through a bounded queue and
//!   applied serially by a dedicated writer thread. Followers are replica
//!   sessions (built from a leader [`BootstrapBundle`]) that serve `ask`
//!   and `search` fanned out round-robin.
//! - **Journal-tail replication.** After every committed write the writer
//!   thread acks the client, then, under each follower's write lock,
//!   replays the leader WAL entries past that follower's cursor
//!   ([`Journal::tail_after`]) through [`AllHands::apply_tail`], which
//!   re-verifies the hash chain and keeps the follower journal
//!   byte-identical to the leader's. Only then does it take the next
//!   write. Convergence is checkable: equal `chain_position()` means
//!   byte-identical history.
//! - **Length-prefixed JSON protocol.** Clients speak newline-free frames
//!   (`u32` little-endian byte length, then one JSON document) over a Unix
//!   socket — see [`protocol`] for the exact framing and [`ServeClient`]
//!   for the typed client.
//!
//! Consistency model: writes are leader-serializable (single writer
//! thread, bounded admission queue); follower reads are bounded-staleness
//! — each read response carries the replica's `lag` in journal entries,
//! read while the read holds the replica's lock, so it is never less than
//! the staleness of the state that answered. `serve.replication_lag`
//! tracks the same number as a volatile histogram.
//!
//! [`Journal::tail_after`]: allhands_core::Journal::tail_after
//! [`BootstrapBundle`]: allhands_core::BootstrapBundle

use allhands_classify::LabeledExample;
use allhands_core::{AllHands, AllHandsConfig, AllHandsError, JournalMode};
use allhands_datasets::{generate_n, DatasetKind};
use allhands_llm::ModelTier;
use allhands_obs::Recorder;
use serde_json::{json, Value};
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

pub mod protocol {
    //! Wire framing: each message is a `u32` little-endian byte length
    //! followed by exactly that many bytes of one UTF-8 JSON document.
    //! Clean EOF between frames reads as `None`; EOF inside a frame is an
    //! error. Both sides use the same framing, so the protocol is fully
    //! symmetric.

    use serde_json::Value;
    use std::io::{self, Read, Write};

    /// Upper bound on a single frame, so a corrupt length prefix cannot
    /// drive an unbounded allocation.
    pub const MAX_FRAME: usize = 64 << 20;

    /// Serialize `doc` compactly and write it as one frame.
    pub fn write_frame(w: &mut impl Write, doc: &Value) -> io::Result<()> {
        let text = doc.to_string();
        let bytes = text.as_bytes();
        if bytes.len() > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {} bytes exceeds MAX_FRAME", bytes.len()),
            ));
        }
        w.write_all(&(bytes.len() as u32).to_le_bytes())?;
        w.write_all(bytes)?;
        w.flush()
    }

    /// Read one frame; `Ok(None)` on clean EOF at a frame boundary.
    pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Value>> {
        let mut len = [0u8; 4];
        match r.read_exact(&mut len) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        let n = u32::from_le_bytes(len) as usize;
        if n > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {n} exceeds MAX_FRAME"),
            ));
        }
        let mut buf = vec![0u8; n];
        r.read_exact(&mut buf)?;
        let text = String::from_utf8(buf)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
        text.parse::<Value>()
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("frame is not JSON: {e}")))
    }
}

/// Everything that can go wrong on either side of the socket.
#[derive(Debug)]
pub enum ServeError {
    /// Socket/frame I/O failure.
    Io(io::Error),
    /// Building or driving a session failed.
    Session(AllHandsError),
    /// The peer violated the protocol (bad frame, missing field).
    Protocol(String),
    /// The server executed the request and reported a typed failure.
    Remote(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve i/o error: {e}"),
            ServeError::Session(e) => write!(f, "serve session error: {e}"),
            ServeError::Protocol(m) => write!(f, "serve protocol error: {m}"),
            ServeError::Remote(m) => write!(f, "server-side error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<AllHandsError> for ServeError {
    fn from(e: AllHandsError) -> Self {
        ServeError::Session(e)
    }
}

/// The corpus a server instance is built over: the same inputs every
/// session (leader and followers) must agree on, because they are folded
/// into the run fingerprint.
#[derive(Debug, Clone)]
pub struct Corpus {
    pub texts: Vec<String>,
    pub labeled: Vec<LabeledExample>,
    pub predefined: Vec<String>,
}

impl Corpus {
    /// A deterministic synthetic corpus (the paper's GoogleStoreApp shape):
    /// `n` documents, the first half labeled, and a fixed predefined-topic
    /// seed list. Used by the `--smoke` path and the benchmark.
    pub fn synthetic(n: usize, seed: u64) -> Self {
        let records = generate_n(DatasetKind::GoogleStoreApp, n, seed);
        let texts: Vec<String> = records.iter().map(|r| r.text.clone()).collect();
        let labeled: Vec<LabeledExample> = records
            .iter()
            .take(n / 2)
            .map(|r| LabeledExample { text: r.text.clone(), label: r.label.clone() })
            .collect();
        let predefined =
            vec!["bug".to_string(), "crash".to_string(), "feature request".to_string()];
        Corpus { texts, labeled, predefined }
    }
}

/// Write-admission queue capacity. A full queue blocks the submitting
/// connection — backpressure, not rejection.
const QUEUE_CAPACITY: usize = 32;

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Read replicas to bring up (at least 1).
    pub followers: usize,
    /// Model tier every session runs at.
    pub tier: ModelTier,
    /// Session configuration shared by leader and followers. Keep
    /// automatic checkpointing off (the default policy): replication does
    /// not survive compaction. The leader checkpoints and compacts inside
    /// the write, before the writer replicates it, so under any checkpoint
    /// policy, `keep_last_k >= 2` included, the first compaction drops WAL
    /// entries the followers have not replayed. The tail read then fails
    /// with `TailGap` and the server reports replication broken until a
    /// restart bootstraps the followers again (ROADMAP.md item 7, "Fuzzed,
    /// simulation-tested edges").
    pub config: AllHandsConfig,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            followers: 2,
            tier: ModelTier::Gpt4,
            config: AllHandsConfig::default(),
        }
    }
}

enum WriteCmd {
    Ingest { texts: Vec<String>, reply: mpsc::Sender<Value> },
    /// Replicate what the followers missed while replication was paused.
    CatchUp,
}

struct Shared {
    socket: PathBuf,
    followers: Vec<RwLock<AllHands>>,
    /// Each follower's replication cursor (its journal's next seq). The
    /// writer stores it before it releases that follower's write lock, so
    /// a read holding the lock sees the cursor of the state it serves.
    follower_seq: Vec<AtomicU64>,
    reads: Vec<AtomicU64>,
    leader_seq: AtomicU64,
    leader_chain: Mutex<String>,
    fingerprint: String,
    rr: AtomicUsize,
    queue_depth: AtomicU64,
    paused: AtomicBool,
    /// Set when replication can no longer make progress (a compaction gap
    /// or a rejected replicated line); the writer stops replicating,
    /// followers keep serving at their last applied state, status reports
    /// the breakage.
    broken: Mutex<Option<String>>,
    shutdown: AtomicBool,
    recorder: Recorder,
}

impl Shared {
    fn lag_of(&self, replica: usize) -> u64 {
        self.leader_seq
            .load(Ordering::SeqCst)
            .saturating_sub(self.follower_seq[replica].load(Ordering::SeqCst))
    }
}

/// A running server: one leader session owned by the writer thread, N
/// follower replicas behind `RwLock`s, an accept loop on a Unix socket.
pub struct Server {
    socket: PathBuf,
    shared: Arc<Shared>,
    writer_tx: Option<mpsc::SyncSender<WriteCmd>>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bring up a leader + `opts.followers` replicas over `corpus`, bind
    /// `socket`, and start serving. `data_dir` receives one journal
    /// directory per session (`leader/`, `follower-0/`, ...). Over an
    /// existing `data_dir` the leader recovers its latest state from
    /// `leader/`, and each `follower-{i}/` is emptied and bootstrapped
    /// again from the leader: follower journals are copies of the leader's
    /// WAL, owned by the server.
    pub fn start(
        socket: &Path,
        data_dir: &Path,
        corpus: &Corpus,
        opts: ServeOptions,
    ) -> Result<Server, ServeError> {
        let followers_n = opts.followers.max(1);

        let (leader, _frame) = AllHands::builder(opts.tier)
            .config(opts.config.clone())
            .journal(JournalMode::Continue(data_dir.join("leader")))
            .recover_latest()
            .analyze(&corpus.texts, &corpus.labeled, &corpus.predefined)?;
        let bundle = leader.export_bootstrap()?;
        let fingerprint = leader
            .run_fingerprint()
            .ok_or_else(|| ServeError::Protocol("leader journal has no run fingerprint".into()))?
            .to_string();
        let (leader_next, leader_head) = leader
            .chain_position()
            .ok_or_else(|| ServeError::Protocol("leader session is not journaled".into()))?;

        let mut followers = Vec::with_capacity(followers_n);
        let mut follower_seq = Vec::with_capacity(followers_n);
        let mut reads = Vec::with_capacity(followers_n);
        for i in 0..followers_n {
            let dir = data_dir.join(format!("follower-{i}"));
            if dir.exists() {
                std::fs::remove_dir_all(&dir)?;
            }
            let (mut flw, _fframe) = AllHands::builder(opts.tier)
                .config(opts.config.clone())
                .journal(JournalMode::Continue(dir))
                .bootstrap(bundle.clone())
                .replica()
                .analyze(&corpus.texts, &corpus.labeled, &corpus.predefined)?;
            flw.prepare_search()?;
            let (fseq, fhead) = flw
                .chain_position()
                .ok_or_else(|| ServeError::Protocol("follower session is not journaled".into()))?;
            if (fseq, &fhead) != (leader_next, &leader_head) {
                return Err(ServeError::Protocol(format!(
                    "follower {i} bootstrapped to ({fseq}, {fhead}), leader is at ({leader_next}, {leader_head})"
                )));
            }
            followers.push(RwLock::new(flw));
            follower_seq.push(AtomicU64::new(fseq));
            reads.push(AtomicU64::new(0));
        }

        if socket.exists() {
            std::fs::remove_file(socket)?;
        }
        let listener = UnixListener::bind(socket)?;

        let recorder = Recorder::new();
        recorder.set_meta("serve.followers", &followers_n.to_string());
        let shared = Arc::new(Shared {
            socket: socket.to_path_buf(),
            followers,
            follower_seq,
            reads,
            leader_seq: AtomicU64::new(leader_next),
            leader_chain: Mutex::new(leader_head),
            fingerprint,
            rr: AtomicUsize::new(0),
            queue_depth: AtomicU64::new(0),
            paused: AtomicBool::new(false),
            broken: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            recorder,
        });

        let (writer_tx, writer_rx) = mpsc::sync_channel::<WriteCmd>(QUEUE_CAPACITY);
        let mut threads = Vec::new();

        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || writer_loop(leader, writer_rx, &shared)));
        }
        {
            let shared = Arc::clone(&shared);
            let tx = writer_tx.clone();
            threads.push(std::thread::spawn(move || accept_loop(listener, &shared, &tx)));
        }

        Ok(Server { socket: socket.to_path_buf(), shared, writer_tx: Some(writer_tx), threads })
    }

    /// The socket path clients connect to.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Block until a client sends `{"op":"shutdown"}`, then tear down.
    pub fn run_until_shutdown(mut self) {
        let threads = std::mem::take(&mut self.threads);
        self.writer_tx.take();
        for t in threads {
            let _ = t.join();
        }
        std::fs::remove_file(&self.socket).ok();
    }

    /// Stop serving: drains the writer, joins every thread, removes the
    /// socket file. Idempotent with a client-sent shutdown.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.writer_tx.take();
        // Unblock the accept loop; it re-checks the shutdown flag per
        // connection.
        let _ = UnixStream::connect(&self.socket);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        std::fs::remove_file(&self.socket).ok();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.stop();
        }
    }
}

/// The single writer: owns the leader session and applies admitted writes
/// serially. After each write it acks the client, then replicates to every
/// follower before it takes the next command.
fn writer_loop(mut leader: AllHands, rx: mpsc::Receiver<WriteCmd>, shared: &Shared) {
    loop {
        let cmd = match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(cmd) => cmd,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        };
        if let WriteCmd::Ingest { texts, reply } = cmd {
            shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
            shared.recorder.vincr("serve.writes");
            let result = leader.ingest(&texts);
            if let Some((seq, head)) = leader.chain_position() {
                shared.leader_seq.store(seq, Ordering::SeqCst);
                *shared.leader_chain.lock().unwrap_or_else(|p| p.into_inner()) = head;
            }
            let seq = shared.leader_seq.load(Ordering::SeqCst);
            let resp = match result {
                Ok(rep) => json!({
                    "ok": true,
                    "batch": rep.batch,
                    "new_rows": rep.new_rows,
                    "assigned": rep.assigned,
                    "routed_pending": rep.routed_pending,
                    "flushed": rep.flushed,
                    "coined": rep.coined.clone(),
                    "retrained": rep.retrained,
                    "seq": seq,
                }),
                Err(e) => json!({
                    "ok": false,
                    "error": e.to_string(),
                    "read_only": matches!(e, AllHandsError::ReadOnly(_)),
                    "seq": seq,
                }),
            };
            let _ = reply.send(resp);
        }
        if let Err(e) = replicate(&leader, shared) {
            *shared.broken.lock().unwrap_or_else(|p| p.into_inner()) = Some(e);
        }
    }
    // Leader drops here, releasing its journal lock.
}

/// Replay the leader WAL entries past each follower's cursor into that
/// follower, under its write lock. Skipped while paused; once broken,
/// replication stays stopped. Every follower runs the same reducer over the
/// same bytes, so a line one follower rejects, every follower rejects.
fn replicate(leader: &AllHands, shared: &Shared) -> Result<(), String> {
    if shared.paused.load(Ordering::SeqCst)
        || shared.broken.lock().unwrap_or_else(|p| p.into_inner()).is_some()
    {
        return Ok(());
    }
    let Some(journal) = leader.journal() else { return Ok(()) };
    for (i, follower) in shared.followers.iter().enumerate() {
        // The tail is in memory, so a read fails only when compaction
        // outran the cursor, as the first compaction under any checkpoint
        // policy does (see `ServeOptions::config`).
        let tail = journal
            .tail_after(shared.follower_seq[i].load(Ordering::SeqCst))
            .map_err(|e| format!("follower {i} tail read failed: {e}"))?;
        if tail.is_empty() {
            continue;
        }
        let mut flw = follower.write().unwrap_or_else(|p| p.into_inner());
        let rep = flw.apply_tail(&tail).map_err(|e| format!("follower {i} replay failed: {e}"))?;
        shared.follower_seq[i].store(rep.next_seq, Ordering::SeqCst);
        shared.recorder.vadd("serve.replicated_entries", rep.applied as u64);
    }
    Ok(())
}

fn accept_loop(listener: UnixListener, shared: &Arc<Shared>, writer_tx: &mpsc::SyncSender<WriteCmd>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { break };
        shared.recorder.vincr("serve.connections");
        let shared = Arc::clone(shared);
        let tx = writer_tx.clone();
        std::thread::spawn(move || {
            let _ = handle_conn(stream, &shared, &tx);
        });
    }
}

fn handle_conn(
    stream: UnixStream,
    shared: &Arc<Shared>,
    writer_tx: &mpsc::SyncSender<WriteCmd>,
) -> io::Result<()> {
    let mut reader = stream.try_clone()?;
    let mut writer = stream;
    while let Some(req) = protocol::read_frame(&mut reader)? {
        let op = str_field(&req, "op").unwrap_or_default().to_string();
        let resp = dispatch(&op, &req, shared, writer_tx);
        protocol::write_frame(&mut writer, &resp)?;
        if op == "shutdown" {
            shared.shutdown.store(true, Ordering::SeqCst);
            // Unblock the accept loop so it observes the flag.
            let _ = UnixStream::connect(&shared.socket);
            break;
        }
    }
    Ok(())
}

fn dispatch(
    op: &str,
    req: &Value,
    shared: &Arc<Shared>,
    writer_tx: &mpsc::SyncSender<WriteCmd>,
) -> Value {
    match op {
        "ping" => json!({"ok": true, "pong": true}),
        "ingest" => op_ingest(req, shared, writer_tx),
        "ask" => op_ask(req, shared),
        "search" => op_search(req, shared),
        "status" => op_status(shared),
        "metrics" => json!({"ok": true, "report": shared.recorder.report().to_json()}),
        "pause_replication" => {
            shared.paused.store(true, Ordering::SeqCst);
            json!({"ok": true, "paused": true})
        }
        "resume_replication" => {
            shared.paused.store(false, Ordering::SeqCst);
            // The writer replicates after every command, so a full queue
            // needs no catch-up of its own.
            let _ = writer_tx.try_send(WriteCmd::CatchUp);
            json!({"ok": true, "paused": false})
        }
        "shutdown" => json!({"ok": true, "shutting_down": true}),
        other => json!({"ok": false, "error": format!("unknown op {other:?}")}),
    }
}

fn op_ingest(req: &Value, shared: &Arc<Shared>, writer_tx: &mpsc::SyncSender<WriteCmd>) -> Value {
    let Some(texts) = req["texts"].as_array_of_strings() else {
        return json!({"ok": false, "error": "ingest needs \"texts\": [string, ...]"});
    };
    let depth = shared.queue_depth.fetch_add(1, Ordering::SeqCst) + 1;
    shared.recorder.vobserve("serve.queue_depth", depth);
    let (tx, rx) = mpsc::channel();
    // A full admission queue blocks here: backpressure on the submitter.
    if writer_tx.send(WriteCmd::Ingest { texts, reply: tx }).is_err() {
        shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
        return json!({"ok": false, "error": "writer is gone (server shutting down)"});
    }
    match rx.recv() {
        Ok(resp) => resp,
        Err(_) => json!({"ok": false, "error": "writer dropped the request (server shutting down)"}),
    }
}

fn op_ask(req: &Value, shared: &Arc<Shared>) -> Value {
    let Some(question) = str_field(req, "question") else {
        return json!({"ok": false, "error": "ask needs \"question\": string"});
    };
    let i = shared.rr.fetch_add(1, Ordering::SeqCst) % shared.followers.len();
    shared.recorder.vincr(&format!("serve.reads.replica{i}"));
    shared.reads[i].fetch_add(1, Ordering::SeqCst);
    let mut flw = shared.followers[i].write().unwrap_or_else(|p| p.into_inner());
    // The writer moves this replica's cursor only under its lock.
    let lag = shared.lag_of(i);
    shared.recorder.vobserve("serve.replication_lag", lag);
    match flw.ask(question) {
        Ok(r) => json!({
            "ok": true,
            "replica": i,
            "lag": lag,
            "answer": r.render(),
            "error": r.error.clone().map(Value::String).unwrap_or(Value::Null),
            "degradation": r.degradation.clone(),
        }),
        Err(e) => json!({"ok": false, "replica": i, "lag": lag, "error": e.to_string()}),
    }
}

fn op_search(req: &Value, shared: &Arc<Shared>) -> Value {
    let Some(text) = str_field(req, "text") else {
        return json!({"ok": false, "error": "search needs \"text\": string"});
    };
    let k = u64_field(req, "k").unwrap_or(5) as usize;
    let i = shared.rr.fetch_add(1, Ordering::SeqCst) % shared.followers.len();
    shared.recorder.vincr(&format!("serve.reads.replica{i}"));
    shared.reads[i].fetch_add(1, Ordering::SeqCst);
    // The read-path borrow split: `search_similar_prepared` is `&self`, so
    // searches share the replica behind a read lock and never block each
    // other.
    let flw = shared.followers[i].read().unwrap_or_else(|p| p.into_inner());
    let lag = shared.lag_of(i);
    shared.recorder.vobserve("serve.replication_lag", lag);
    match flw.search_similar_prepared(text, k) {
        Ok(hits) => {
            let hits: Vec<Value> = hits
                .into_iter()
                .map(|(id, score)| Value::Array(vec![id.into(), (score as f64).into()]))
                .collect();
            json!({"ok": true, "replica": i, "lag": lag, "hits": hits})
        }
        Err(e) => json!({"ok": false, "replica": i, "lag": lag, "error": e.to_string()}),
    }
}

fn op_status(shared: &Arc<Shared>) -> Value {
    let mut followers = Vec::new();
    for (i, f) in shared.followers.iter().enumerate() {
        let guard = f.read().unwrap_or_else(|p| p.into_inner());
        let (seq, chain) = guard.chain_position().unwrap_or((0, String::new()));
        let fp = guard.run_fingerprint().unwrap_or_default().to_string();
        let lag = shared.lag_of(i);
        drop(guard);
        followers.push(json!({
            "replica": i,
            "seq": seq,
            "chain": chain,
            "lag": lag,
            "reads": shared.reads[i].load(Ordering::SeqCst),
            "fingerprint": fp,
        }));
    }
    json!({
        "ok": true,
        "leader": {
            "seq": shared.leader_seq.load(Ordering::SeqCst),
            "chain": shared.leader_chain.lock().unwrap_or_else(|p| p.into_inner()).clone(),
            "fingerprint": shared.fingerprint.clone(),
        },
        "followers": Value::Array(followers),
        "queue": {
            "depth": shared.queue_depth.load(Ordering::SeqCst),
            "capacity": QUEUE_CAPACITY,
        },
        "paused": shared.paused.load(Ordering::SeqCst),
        "broken": shared
            .broken
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
            .map(Value::String)
            .unwrap_or(Value::Null),
    })
}

// ---- small Value accessors (the shim has no as_str/as_u64 helpers) --------

fn str_field<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match &v[key] {
        Value::String(s) => Some(s.as_str()),
        _ => None,
    }
}

fn u64_field(v: &Value, key: &str) -> Option<u64> {
    match &v[key] {
        Value::U64(n) => Some(*n),
        Value::I64(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

trait ValueExt {
    fn as_array_of_strings(&self) -> Option<Vec<String>>;
}

impl ValueExt for Value {
    fn as_array_of_strings(&self) -> Option<Vec<String>> {
        match self {
            Value::Array(items) => items
                .iter()
                .map(|v| match v {
                    Value::String(s) => Some(s.clone()),
                    _ => None,
                })
                .collect(),
            _ => None,
        }
    }
}

// ---- client ----------------------------------------------------------------

/// One follower read, as served over the wire.
#[derive(Debug, Clone)]
pub struct AskReply {
    /// The rendered answer text.
    pub answer: String,
    /// The agent's failure note, when it gave up (still an answered read).
    pub error: Option<String>,
    /// Degradation notes attached to the answer.
    pub degradation: Vec<String>,
    /// Which replica served the read.
    pub replica: u64,
    /// How many journal entries the replica was behind the leader while
    /// the read held its lock: never less than the staleness of the state
    /// that answered.
    pub lag: u64,
}

/// Summary of a leader write.
#[derive(Debug, Clone, Copy)]
pub struct IngestSummary {
    /// 0-based batch ordinal the leader assigned.
    pub batch: u64,
    /// Rows appended.
    pub new_rows: u64,
    /// Leader journal head after the commit.
    pub seq: u64,
}

/// Blocking client for the length-prefixed JSON protocol. One request in
/// flight at a time per connection; open more clients for concurrency.
pub struct ServeClient {
    stream: UnixStream,
}

impl ServeClient {
    pub fn connect(socket: &Path) -> Result<ServeClient, ServeError> {
        Ok(ServeClient { stream: UnixStream::connect(socket)? })
    }

    /// Send one request document and wait for its reply. Replies with
    /// `"ok": false` surface as [`ServeError::Remote`].
    pub fn call(&mut self, req: &Value) -> Result<Value, ServeError> {
        protocol::write_frame(&mut self.stream, req)?;
        let Some(resp) = protocol::read_frame(&mut self.stream)? else {
            return Err(ServeError::Protocol("server closed the connection".into()));
        };
        if let Value::Bool(false) = resp["ok"] {
            let msg = str_field(&resp, "error").unwrap_or("unspecified server error");
            return Err(ServeError::Remote(msg.to_string()));
        }
        Ok(resp)
    }

    pub fn ping(&mut self) -> Result<(), ServeError> {
        self.call(&json!({"op": "ping"})).map(|_| ())
    }

    /// Submit one ingest batch through the leader's admission queue.
    pub fn ingest(&mut self, texts: &[String]) -> Result<IngestSummary, ServeError> {
        let resp = self.call(&json!({"op": "ingest", "texts": texts.to_vec()}))?;
        Ok(IngestSummary {
            batch: u64_field(&resp, "batch").unwrap_or(0),
            new_rows: u64_field(&resp, "new_rows").unwrap_or(0),
            seq: u64_field(&resp, "seq").unwrap_or(0),
        })
    }

    /// Ask a question; the server picks a replica round-robin.
    pub fn ask(&mut self, question: &str) -> Result<AskReply, ServeError> {
        let resp = self.call(&json!({"op": "ask", "question": question}))?;
        let degradation = match &resp["degradation"] {
            Value::Array(items) => items
                .iter()
                .filter_map(|v| match v {
                    Value::String(s) => Some(s.clone()),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        };
        Ok(AskReply {
            answer: str_field(&resp, "answer").unwrap_or_default().to_string(),
            error: str_field(&resp, "error").map(str::to_string),
            degradation,
            replica: u64_field(&resp, "replica").unwrap_or(0),
            lag: u64_field(&resp, "lag").unwrap_or(0),
        })
    }

    /// Similarity search on a replica; returns `(doc_id, score)` pairs.
    pub fn search(&mut self, text: &str, k: usize) -> Result<Vec<(u64, f64)>, ServeError> {
        let resp = self.call(&json!({"op": "search", "text": text, "k": k}))?;
        let Value::Array(items) = &resp["hits"] else {
            return Err(ServeError::Protocol("search reply has no hits array".into()));
        };
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            let id = match &item[0] {
                Value::U64(n) => *n,
                Value::I64(n) if *n >= 0 => *n as u64,
                _ => return Err(ServeError::Protocol("hit id is not an integer".into())),
            };
            let score = match &item[1] {
                Value::F64(x) => *x,
                Value::I64(n) => *n as f64,
                Value::U64(n) => *n as f64,
                _ => return Err(ServeError::Protocol("hit score is not a number".into())),
            };
            out.push((id, score));
        }
        Ok(out)
    }

    /// Leader + follower chain positions, fingerprints, lags, queue state.
    pub fn status(&mut self) -> Result<Value, ServeError> {
        self.call(&json!({"op": "status"}))
    }

    /// Serve-layer metrics (`serve.*`) as a RunReport document.
    pub fn metrics(&mut self) -> Result<Value, ServeError> {
        self.call(&json!({"op": "metrics"}))
    }

    /// Pause replication: the writer keeps committing writes but stops
    /// replaying them into the followers (reads keep serving, lag grows).
    /// For tests and maintenance windows.
    pub fn pause_replication(&mut self) -> Result<(), ServeError> {
        self.call(&json!({"op": "pause_replication"})).map(|_| ())
    }

    /// Resume replication: the writer replays what the followers missed.
    pub fn resume_replication(&mut self) -> Result<(), ServeError> {
        self.call(&json!({"op": "resume_replication"})).map(|_| ())
    }

    /// Ask the server to shut down.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        self.call(&json!({"op": "shutdown"})).map(|_| ())
    }

    /// Poll `status` until every follower has drained to the leader's head.
    /// Returns the final status document. Errs once `timeout` passes, or as
    /// soon as the status reports replication broken, with the reason: a
    /// broken server replicates nothing more until a restart, so no wait
    /// would drain it.
    pub fn wait_replicated(&mut self, timeout: Duration) -> Result<Value, ServeError> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let status = self.status()?;
            if let Value::String(reason) = &status["broken"] {
                return Err(ServeError::Remote(format!("replication broken: {reason}")));
            }
            let drained = match &status["followers"] {
                Value::Array(items) => {
                    items.iter().all(|f| u64_field(f, "lag") == Some(0))
                }
                _ => false,
            };
            if drained {
                return Ok(status);
            }
            if std::time::Instant::now() >= deadline {
                return Err(ServeError::Protocol(format!(
                    "followers still lagging after {timeout:?}: {status}"
                )));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

// ---- smoke ------------------------------------------------------------------

/// End-to-end smoke: leader + `followers` replicas on a tmp socket; ingest
/// while both followers serve reads; assert every fingerprint and chain
/// position converges. Returns a human-readable summary, errors typed.
pub fn smoke(socket: &Path, data_dir: &Path, followers: usize) -> Result<String, ServeError> {
    let corpus = Corpus::synthetic(24, 17);
    let opts = ServeOptions { followers, ..ServeOptions::default() };
    let server = Server::start(socket, data_dir, &corpus, opts)?;

    let mut client = ServeClient::connect(socket)?;
    client.ping()?;

    // Reads on every follower while the leader is still write-idle.
    let mut replicas_hit = std::collections::BTreeSet::new();
    for _ in 0..followers.max(1) {
        let reply = client.ask("How many feedback entries are there?")?;
        replicas_hit.insert(reply.replica);
        if let Some(e) = reply.error {
            return Err(ServeError::Remote(format!("smoke ask failed: {e}")));
        }
    }
    if replicas_hit.len() != followers.max(1) {
        return Err(ServeError::Protocol(format!(
            "round-robin did not hit every replica: {replicas_hit:?}"
        )));
    }

    // Ingest through the admission queue while a second client reads.
    let batch: Vec<String> = [
        "battery drains overnight even when idle",
        "phone gets hot and battery dies fast since update",
        "standby battery drain is terrible now",
    ]
    .map(String::from)
    .to_vec();
    let reader_socket = socket.to_path_buf();
    let reader = std::thread::spawn(move || -> Result<usize, ServeError> {
        let mut c = ServeClient::connect(&reader_socket)?;
        let mut served = 0;
        for _ in 0..4 {
            let r = c.ask("Which topic appears most frequently?")?;
            if r.error.is_none() {
                served += 1;
            }
        }
        Ok(served)
    });
    let ingest = client.ingest(&batch)?;
    let served = reader
        .join()
        .map_err(|_| ServeError::Protocol("reader thread panicked".into()))??;

    // Convergence: every follower drains to the leader's head with the
    // leader's chain hash and run fingerprint.
    let status = client.wait_replicated(Duration::from_secs(30))?;
    let leader_chain = str_field(&status["leader"], "chain").unwrap_or_default().to_string();
    let leader_fp = str_field(&status["leader"], "fingerprint").unwrap_or_default().to_string();
    let Value::Array(flws) = &status["followers"] else {
        return Err(ServeError::Protocol("status has no followers array".into()));
    };
    for f in flws {
        let chain = str_field(f, "chain").unwrap_or_default();
        let fp = str_field(f, "fingerprint").unwrap_or_default();
        if chain != leader_chain || fp != leader_fp {
            return Err(ServeError::Protocol(format!(
                "follower diverged from leader: {f} vs chain={leader_chain} fp={leader_fp}"
            )));
        }
    }

    // Search works on the replicated state (read-lock path).
    let hits = client.search("battery drain", 3)?;
    if hits.is_empty() {
        return Err(ServeError::Protocol("search returned no hits after ingest".into()));
    }

    client.shutdown()?;
    server.run_until_shutdown();
    Ok(format!(
        "serve smoke ok: {} followers converged at seq {} (chain {}), \
         ingest batch {} added {} rows, {} reads served during ingest, {} search hits",
        followers.max(1),
        u64_field(&status["leader"], "seq").unwrap_or(0),
        leader_chain,
        ingest.batch,
        ingest.new_rows,
        served,
        hits.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let doc = json!({"op": "ask", "question": "why?", "k": 3, "nested": {"a": [1, 2]}});
        let mut buf = Vec::new();
        protocol::write_frame(&mut buf, &doc).unwrap();
        let mut r = Cursor::new(buf.clone());
        let back = protocol::read_frame(&mut r).unwrap().unwrap();
        assert_eq!(back, doc);
        // Clean EOF at the boundary is None, not an error.
        assert!(protocol::read_frame(&mut r).unwrap().is_none());
        // A torn frame is an error, not a None.
        let mut torn = Cursor::new(buf[..buf.len() - 2].to_vec());
        assert!(protocol::read_frame(&mut torn).is_err());
    }

    #[test]
    fn oversized_frame_lengths_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(b"garbage");
        assert!(protocol::read_frame(&mut Cursor::new(buf)).is_err());
    }

    #[test]
    fn value_accessors_tolerate_shape_mismatches() {
        let doc = json!({"s": "x", "n": 3, "arr": ["a", "b"], "bad": [1, "b"]});
        assert_eq!(str_field(&doc, "s"), Some("x"));
        assert_eq!(str_field(&doc, "n"), None);
        assert_eq!(u64_field(&doc, "n"), Some(3));
        assert_eq!(u64_field(&doc, "s"), None);
        assert_eq!(
            doc["arr"].as_array_of_strings(),
            Some(vec!["a".to_string(), "b".to_string()])
        );
        assert_eq!(doc["bad"].as_array_of_strings(), None);
    }
}
