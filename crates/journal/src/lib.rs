//! Crash-safe write-ahead journal for the AllHands pipeline.
//!
//! The pipeline (classification → topic modeling → QA) is a long batch job;
//! in production it dies — OOM kills, node preemption, deploys — and a run
//! over millions of feedback items cannot afford to start over. This crate
//! provides the durable run record that makes exact resume possible:
//!
//! - A [`Journal`] is an append-only JSONL file (`allhands.journal` inside a
//!   run directory). Each entry snapshots one completed unit of work — a
//!   stage boundary, one answered QA question, one ingested batch.
//! - Entries form a **hash chain**: every entry records the previous
//!   entry's content hash and its own, computed structurally over the
//!   payload. A reader verifies the chain front to back.
//! - **Torn-tail recovery**: a crash mid-append leaves a truncated or
//!   corrupt final line. [`Journal::open`] detects it (missing terminating
//!   newline, invalid UTF-8, parse failure, or hash mismatch), drops the
//!   invalid suffix, and physically truncates the file back to the last
//!   valid entry — the interrupted unit of work is simply replayed. A
//!   final line is torn even when its content parses: the fsync that
//!   acknowledges an entry covers its newline, so an unterminated line was
//!   never acknowledged, and keeping it would corrupt the *next* append.
//! - Appends are flushed and fsynced before returning, so an entry that
//!   [`Journal::append`] acknowledged survives process death.
//!
//! On top of the WAL sit three durability features:
//!
//! - **Checkpoints** ([`Journal::checkpoint`]): a full-state snapshot
//!   written to its own `ckpt-NNNNNNNNNN.json` file with the atomic
//!   temp-file → fsync → rename → dir-fsync protocol. Each checkpoint
//!   records the journal offset it covers (`upto_seq`), the chain head at
//!   that offset (the **re-anchor** for compaction), the run fingerprint,
//!   and a content hash. A torn or corrupt checkpoint fails its hash check
//!   at open time and is skipped in favor of the previous durable one.
//! - **Compaction** ([`Journal::compact`]): truncates WAL entries below
//!   the *oldest retained* checkpoint and prunes older checkpoint files.
//!   Verification of the compacted WAL restarts at the checkpoint's
//!   recorded chain head, so the hash chain stays intact end to end.
//!   Anchoring at the oldest retained checkpoint (not the newest) means
//!   that if the newest checkpoint file is later corrupted, an older one
//!   plus the surviving delta records still recovers the full state.
//! - **Locking**: a pid-stamped `LOCK` file (create-exclusive) makes a
//!   second concurrent opener fail fast with [`JournalError::Locked`]
//!   instead of interleaving appends; locks left by dead processes are
//!   detected and reclaimed.
//!
//! Determinism makes this journal sufficient for *byte-identical* resume:
//! stages are pure functions of (inputs, seed, resilience state), so a
//! snapshot of stage outputs plus the resilience counters is a complete
//! checkpoint. The crash-chaos and checkpoint-recovery suites in the
//! umbrella crate kill the pipeline at every seeded crash point — including
//! every checkpoint/compaction seam — and assert resumed transcripts equal
//! uninterrupted ones.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod vfs;

use serde::{Deserialize, Serialize};
use serde_json::{Map, Value};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use vfs::{RealVfs, Vfs, VfsFile};

/// The journal file name inside a run directory.
pub const JOURNAL_FILE: &str = "allhands.journal";

/// The lock file name inside a run directory.
pub const LOCK_FILE: &str = "LOCK";

/// Callback invoked at named checkpoint/compaction seams (e.g.
/// `ckpt:3:pre-rename`, `compact:mid-truncate`), letting the resilience
/// layer's seeded crash schedule reach into journal internals without a
/// dependency edge between the crates.
pub type CrashHook = Box<dyn Fn(&str) + Send + Sync>;

/// A journal failure. Torn tails and corrupt checkpoints are *not* errors
/// (they are recovered silently); these are genuine I/O or invariant
/// problems.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    /// Filesystem failure (message carries the operation and path).
    Io(String),
    /// The journal belongs to a different run (header mismatch).
    RunMismatch {
        /// The fingerprint of the run opening the journal.
        expected: String,
        /// The fingerprint the journal's header or checkpoint records.
        found: String,
    },
    /// Payload (de)serialization failed.
    Codec(String),
    /// Another live session holds the journal directory's lock.
    Locked {
        /// The lock file.
        path: String,
        /// The pid recorded in the lock file (0 when unreadable).
        holder: u32,
    },
    /// The journal tripped into read-only degraded mode (repeated storage
    /// failures on the write path). Reads keep serving; writes are refused
    /// until the journal is reopened.
    ReadOnly(String),
    /// A bootstrap bundle failed verification (hash, chain, or
    /// fingerprint) or the target journal is not empty.
    Bootstrap(String),
    /// A tail read asked for a cursor the WAL no longer covers: the
    /// entries behind `oldest` were compacted behind a checkpoint (or lost
    /// to interior corruption), so the follower must re-bootstrap instead
    /// of tailing.
    TailGap {
        /// The seq the reader asked to resume from.
        cursor: u64,
        /// The oldest seq the WAL can still serve contiguously.
        oldest: u64,
    },
    /// A replicated line failed verification against this journal's chain
    /// (wrong seq, broken hash, or a conflicting run fingerprint).
    Replication(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(m) => write!(f, "journal i/o error: {m}"),
            JournalError::RunMismatch { expected, found } => write!(
                f,
                "journal belongs to a different run (expected fingerprint {expected}, found {found})"
            ),
            JournalError::Codec(m) => write!(f, "journal codec error: {m}"),
            JournalError::Locked { path, holder } => write!(
                f,
                "journal directory is locked by another session (pid {holder}): {path}"
            ),
            JournalError::ReadOnly(m) => {
                write!(f, "journal is in read-only degraded mode: {m}")
            }
            JournalError::Bootstrap(m) => write!(f, "bootstrap bundle rejected: {m}"),
            JournalError::TailGap { cursor, oldest } => write!(
                f,
                "tail cursor {cursor} predates the oldest retained entry {oldest} (compacted); re-bootstrap"
            ),
            JournalError::Replication(m) => write!(f, "replicated line rejected: {m}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// One verified journal entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// 0-based position in the chain.
    pub seq: u64,
    /// Entry namespace: `"header"`, `"stage"`, `"qa"`, `"ingest"`, …
    pub stage: String,
    /// Key within the namespace (e.g. `"classified"`, `"q0"`, a doc id).
    pub key: String,
    /// This entry's chain hash (hex).
    pub hash: String,
    /// The snapshot payload.
    pub payload: Value,
}

/// One raw WAL line handed to a replica by [`Journal::tail_after`]: the
/// exact on-disk text (no trailing newline) plus its seq. Followers install
/// it with [`Journal::append_raw`], keeping their WAL byte-identical to the
/// leader's suffix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailEntry {
    /// Chain position of the line.
    pub seq: u64,
    /// The exact on-disk line (no trailing newline).
    pub line: String,
}

/// One verified checkpoint: a full-state snapshot anchored at a journal
/// offset, stamped with the run fingerprint and a content hash.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointRecord {
    /// Monotonic checkpoint marker (the ingest batch count at write time).
    pub marker: u64,
    /// The journal seq this checkpoint covers: every entry with
    /// `seq < upto_seq` is summarized by the payload and may be compacted.
    pub upto_seq: u64,
    /// The chain head at `upto_seq` — verification of a compacted WAL
    /// re-anchors here.
    pub chain: u64,
    /// The run fingerprint the checkpoint belongs to.
    pub fingerprint: String,
    /// Content hash over (marker, upto_seq, chain, fingerprint, payload).
    pub hash: String,
    /// The serialized session state.
    pub payload: Value,
}

/// What one [`Journal::compact`] call removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// WAL entries truncated (all had `seq` below the retained anchor).
    pub entries_dropped: usize,
    /// Checkpoint files pruned by the retention policy.
    pub checkpoints_pruned: usize,
    /// Bytes removed from the WAL file.
    pub bytes_reclaimed: u64,
}

/// A self-contained, hash-verified state handoff for follower bootstrap:
/// the newest durable checkpoint at or below the requested journal offset
/// (as its exact on-disk file text) plus the WAL suffix from the
/// checkpoint's anchor up to that offset (as exact on-disk lines). A
/// follower installs it with [`Journal::bootstrap_from`], which re-verifies
/// the bundle hash, the checkpoint hash, the WAL chain from the anchor,
/// and the run fingerprint before writing anything — so a bundle corrupted
/// in transit (or torn by an export-side storage fault) is rejected typed,
/// never half-installed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BootstrapBundle {
    /// Bundle format version (currently 1).
    pub v: u32,
    /// The run fingerprint the leader serves; the follower's `ensure_run`
    /// must agree after install.
    pub fingerprint: String,
    /// Exact checkpoint file text (including trailing newline), when a
    /// durable checkpoint at or below `upto_seq` existed.
    pub checkpoint: Option<String>,
    /// Exact WAL lines (no trailing newline) covering
    /// `[checkpoint anchor, upto_seq)`.
    pub wal: Vec<String>,
    /// The journal seq the bundle covers up to (exclusive): a follower
    /// that installs it resumes appending at this seq.
    pub upto_seq: u64,
    /// Content hash over every field above (hex).
    pub hash: String,
}

/// Content hash for a bootstrap bundle. A distinct domain tag keeps bundle
/// hashes disjoint from entry and checkpoint hashes.
fn bundle_hash(fingerprint: &str, checkpoint: Option<&str>, wal: &[String], upto_seq: u64) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    fnv1a(&mut h, b"bundle\x1F");
    fnv1a(&mut h, &(fingerprint.len() as u64).to_le_bytes());
    fnv1a(&mut h, fingerprint.as_bytes());
    match checkpoint {
        Some(c) => {
            fnv1a(&mut h, b"\x01");
            fnv1a(&mut h, &(c.len() as u64).to_le_bytes());
            fnv1a(&mut h, c.as_bytes());
        }
        None => fnv1a(&mut h, b"\x00"),
    }
    fnv1a(&mut h, &(wal.len() as u64).to_le_bytes());
    for l in wal {
        fnv1a(&mut h, &(l.len() as u64).to_le_bytes());
        fnv1a(&mut h, l.as_bytes());
    }
    fnv1a(&mut h, &upto_seq.to_le_bytes());
    h
}

/// FNV-1a 64-bit over bytes — stable, dependency-free, fast enough for
/// checkpoint-sized payloads.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Structural hash of a JSON value: tag every node kind, hash scalars by
/// canonical byte form, recurse in order. Independent of JSON text
/// formatting, so a parse → hash round trip never disagrees with the
/// writer's hash because of printing differences.
fn hash_value(h: &mut u64, v: &Value) {
    match v {
        Value::Null => fnv1a(h, b"\x00"),
        Value::Bool(b) => fnv1a(h, if *b { b"\x01t" } else { b"\x01f" }),
        Value::I64(n) => {
            fnv1a(h, b"\x02");
            fnv1a(h, &n.to_le_bytes());
        }
        Value::U64(n) => {
            fnv1a(h, b"\x03");
            fnv1a(h, &n.to_le_bytes());
        }
        Value::F64(n) => {
            fnv1a(h, b"\x04");
            fnv1a(h, &n.to_bits().to_le_bytes());
        }
        Value::String(s) => {
            fnv1a(h, b"\x05");
            fnv1a(h, &(s.len() as u64).to_le_bytes());
            fnv1a(h, s.as_bytes());
        }
        Value::Array(items) => {
            fnv1a(h, b"\x06");
            fnv1a(h, &(items.len() as u64).to_le_bytes());
            for item in items {
                hash_value(h, item);
            }
        }
        Value::Object(m) => {
            fnv1a(h, b"\x07");
            fnv1a(h, &(m.len() as u64).to_le_bytes());
            for (k, val) in m.iter() {
                fnv1a(h, &(k.len() as u64).to_le_bytes());
                fnv1a(h, k.as_bytes());
                hash_value(h, val);
            }
        }
    }
}

/// Chain hash for an entry: previous hash, position, namespace, key, and the
/// structural payload hash, all mixed through FNV-1a.
fn entry_hash(prev: u64, seq: u64, stage: &str, key: &str, payload: &Value) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64; // FNV offset basis
    fnv1a(&mut h, &prev.to_le_bytes());
    fnv1a(&mut h, &seq.to_le_bytes());
    fnv1a(&mut h, stage.as_bytes());
    fnv1a(&mut h, b"\x1F");
    fnv1a(&mut h, key.as_bytes());
    fnv1a(&mut h, b"\x1F");
    hash_value(&mut h, payload);
    h
}

/// Content hash for a checkpoint. A distinct domain tag keeps checkpoint
/// hashes disjoint from entry hashes even over identical payloads.
fn checkpoint_hash(marker: u64, upto_seq: u64, chain: u64, fingerprint: &str, payload: &Value) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    fnv1a(&mut h, b"ckpt\x1F");
    fnv1a(&mut h, &marker.to_le_bytes());
    fnv1a(&mut h, &upto_seq.to_le_bytes());
    fnv1a(&mut h, &chain.to_le_bytes());
    fnv1a(&mut h, fingerprint.as_bytes());
    fnv1a(&mut h, b"\x1F");
    hash_value(&mut h, payload);
    h
}

/// File name for checkpoint `marker` (zero-padded so lexicographic order is
/// numeric order).
fn checkpoint_file(marker: u64) -> String {
    format!("ckpt-{marker:010}.json")
}

/// Best-effort liveness probe for a lock-holding pid.
fn pid_alive(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    #[cfg(target_os = "linux")]
    {
        Path::new(&format!("/proc/{pid}")).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        // No portable probe without spawning a process; err on the safe
        // side and treat the holder as alive.
        let _ = pid;
        true
    }
}

/// Monotonic start marker for `pid`, used to tell a lock's original holder
/// apart from an unrelated process that recycled its pid. On Linux this is
/// the kernel's process start time (field 22 of `/proc/{pid}/stat`, in
/// clock ticks since boot — it never changes for a live process and a
/// recycled pid gets a new one). `None` when unavailable.
fn pid_start_token(pid: u32) -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
        // The comm field (2) is parenthesized and may contain spaces; parse
        // from after the closing paren. starttime is field 22 overall, so
        // field 20 of the remainder (state is field 3).
        let rest = &stat[stat.rfind(')')? + 1..];
        rest.split_whitespace().nth(19)?.parse::<u64>().ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = pid;
        None
    }
}

/// This process's start token, computed once (it never changes).
fn self_start_token() -> Option<u64> {
    static TOKEN: std::sync::OnceLock<Option<u64>> = std::sync::OnceLock::new();
    *TOKEN.get_or_init(|| pid_start_token(std::process::id()))
}

/// Exclusive, pid-stamped lock on a journal directory. Two live sessions
/// appending to one WAL would interleave their hash chains; the lock makes
/// the second opener fail fast with [`JournalError::Locked`] instead. The
/// file holds the owner's pid *and* its process start token, so a lock left
/// behind by a dead process (kill -9 skips destructors) can be reclaimed —
/// including when an unrelated process has since recycled the pid: a live
/// process whose start token does not match the one stamped in the lock is
/// not the holder, and the lock is stale.
struct JournalLock {
    path: PathBuf,
}

impl JournalLock {
    fn acquire(dir: &Path, vfs: &dyn Vfs) -> Result<JournalLock, JournalError> {
        let path = dir.join(LOCK_FILE);
        let mut reclaimed = false;
        loop {
            match vfs.create_new(&path) {
                Ok(mut f) => {
                    let stamp = match self_start_token() {
                        Some(tok) => format!("{}\n{tok}", std::process::id()),
                        None => std::process::id().to_string(),
                    };
                    let _ = f.write_all(stamp.as_bytes());
                    let _ = f.sync_all();
                    return Ok(JournalLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let content = vfs.read(&path).ok().and_then(|b| String::from_utf8(b).ok());
                    let mut lines = content.as_deref().unwrap_or("").lines();
                    let holder = lines.next().and_then(|s| s.trim().parse::<u32>().ok());
                    let stamped_token = lines.next().and_then(|s| s.trim().parse::<u64>().ok());
                    // An unreadable or garbled pid is a torn lock write from
                    // a crashed acquire — nobody holds it. A dead pid is
                    // stale; so is a live pid whose start token disagrees
                    // with the stamp (the pid was recycled by an unrelated
                    // process after the real holder died).
                    let stale = match holder {
                        None => true,
                        Some(pid) if !pid_alive(pid) => true,
                        Some(pid) if pid == std::process::id() => false,
                        Some(pid) => match (stamped_token, pid_start_token(pid)) {
                            (Some(stamped), Some(live)) => stamped != live,
                            _ => false,
                        },
                    };
                    if stale && !reclaimed {
                        reclaimed = true;
                        let _ = vfs.remove_file(&path);
                        continue;
                    }
                    return Err(JournalError::Locked {
                        path: path.display().to_string(),
                        holder: holder.unwrap_or(0),
                    });
                }
                Err(e) => {
                    return Err(JournalError::Io(format!("lock {}: {e}", path.display())));
                }
            }
        }
    }
}

impl Drop for JournalLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The crash-safe journal for one pipeline run.
pub struct Journal {
    dir: PathBuf,
    path: PathBuf,
    vfs: Arc<dyn Vfs>,
    file: Box<dyn VfsFile>,
    entries: Vec<Entry>,
    /// The exact on-disk line for each entry (no trailing newline), kept so
    /// compaction can rewrite the surviving suffix byte-for-byte instead of
    /// re-serializing it.
    raw_lines: Vec<String>,
    last_hash: u64,
    /// The seq the next append will use. Not `entries.len()`: compaction
    /// removes entries without renumbering the chain.
    next_seq: u64,
    /// Bytes of the WAL known durable (covered by a successful fsync).
    /// After a write-path failure the file is forced back to this length so
    /// a torn, unacknowledged record can never precede the next append.
    durable_len: u64,
    /// Line units dropped at open time (torn tail, corrupt interior).
    recovered_torn_tail: usize,
    /// Durable checkpoints, ascending by marker.
    checkpoints: Vec<CheckpointRecord>,
    /// Checkpoint files skipped at open time because their hash failed.
    corrupt_checkpoints: usize,
    /// Checkpoint files whose *read* failed at open time (I/O error, not
    /// content corruption) — counted separately so infrastructure failures
    /// are not misfiled as data corruption.
    ckpt_read_errors: usize,
    /// `Some(reason)` once the write path has tripped into read-only
    /// degraded mode; every subsequent write returns
    /// [`JournalError::ReadOnly`].
    read_only: Option<String>,
    /// The run fingerprint recorded by `ensure_run`, stamped onto
    /// checkpoints.
    run: Option<String>,
    crash_hook: Option<CrashHook>,
    _lock: JournalLock,
    rec: allhands_obs::Recorder,
}

/// Which half of the durable-append protocol failed.
enum WriteFail {
    /// The buffered write failed; the file may hold a torn prefix.
    Write(std::io::Error),
    /// The fsync failed; the handle is poisoned (dirty pages may already
    /// be gone) and must be reopened.
    Fsync(std::io::Error),
}

impl Journal {
    /// Open (or create) the journal for run directory `dir` on the real
    /// filesystem. See [`Journal::open_with`].
    pub fn open(dir: &Path) -> Result<Journal, JournalError> {
        Self::open_with(dir, Arc::new(RealVfs))
    }

    /// Open (or create) the journal for run directory `dir` on `vfs`:
    /// acquire the lock, clean stray temp files, load and hash-verify
    /// checkpoints, then verify the WAL chain — re-anchoring at checkpoint
    /// chain heads where the file was compacted or an interior line is
    /// corrupt — and truncate or rewrite any invalid residue.
    pub fn open_with(dir: &Path, vfs: Arc<dyn Vfs>) -> Result<Journal, JournalError> {
        vfs.create_dir_all(dir)
            .map_err(|e| JournalError::Io(format!("create {}: {e}", dir.display())))?;
        let lock = JournalLock::acquire(dir, vfs.as_ref())?;
        // Stray temp files are un-acknowledged checkpoint/compaction writes
        // from a crashed process; they are garbage by construction.
        if let Ok(listing) = vfs.read_dir(dir) {
            for p in listing {
                if p.extension().is_some_and(|x| x == "tmp") {
                    let _ = vfs.remove_file(&p);
                }
            }
        }
        let (checkpoints, corrupt_checkpoints, ckpt_read_errors) =
            Self::load_checkpoints(dir, vfs.as_ref())?;
        let path = dir.join(JOURNAL_FILE);
        let mut file = vfs
            .open_append(&path)
            .map_err(|e| JournalError::Io(format!("open {}: {e}", path.display())))?;
        // Raw bytes, not a String: a torn append can cut a multi-byte UTF-8
        // character mid-sequence, and that must recover like any other torn
        // tail rather than fail the whole open.
        let bytes = file
            .read_all()
            .map_err(|e| JournalError::Io(format!("read {}: {e}", path.display())))?;

        // Chain anchors: seq 0 starts at hash 0; every checkpoint's
        // `upto_seq` restarts at its recorded chain head. The first line of
        // a compacted WAL verifies from its checkpoint's anchor, and a
        // corrupt interior line only costs the span up to the next anchor.
        let mut anchors: HashMap<u64, u64> = HashMap::new();
        anchors.insert(0, 0);
        for c in &checkpoints {
            anchors.insert(c.upto_seq, c.chain);
        }

        let mut entries: Vec<Entry> = Vec::new();
        let mut raw_lines: Vec<String> = Vec::new();
        let mut dropped = 0usize;
        // `(expected seq, previous hash)` while the chain verifies cleanly;
        // `None` before the first entry or after a rejected line.
        let mut hot: Option<(u64, u64)> = None;
        let mut offset = 0usize;
        while offset < bytes.len() {
            let rest = &bytes[offset..];
            let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
                // Final line without its terminating '\n': torn mid-append.
                // The fsync that acknowledges an entry covers the newline
                // too, so this entry was never acknowledged — drop it even
                // if it happens to parse. Accepting it would let the next
                // append concatenate onto the same line, and a later open
                // would then discard BOTH entries, including an
                // acknowledged one.
                dropped += 1;
                break;
            };
            let line_bytes = &rest[..nl];
            offset += nl + 1;
            if line_bytes.is_empty() {
                continue;
            }
            // Never re-anchor behind the chain position already verified:
            // that would admit replayed duplicates of compacted entries.
            let min_seq = entries.last().map_or(0, |e| e.seq + 1);
            let accepted = std::str::from_utf8(line_bytes).ok().and_then(|line| {
                let (seq, stage, key, hash_hex, payload) = Self::parse_line(line)?;
                let prev = match hot {
                    Some((expect, prev)) if seq == expect => prev,
                    _ if seq >= min_seq => *anchors.get(&seq)?,
                    _ => return None,
                };
                let recorded = u64::from_str_radix(&hash_hex, 16).ok()?;
                if recorded != entry_hash(prev, seq, &stage, &key, &payload) {
                    return None;
                }
                Some((Entry { seq, stage, key, hash: hash_hex, payload }, line.to_string(), recorded))
            });
            match accepted {
                Some((entry, line, hash)) => {
                    hot = Some((entry.seq + 1, hash));
                    entries.push(entry);
                    raw_lines.push(line);
                }
                None => {
                    dropped += 1;
                    hot = None;
                }
            }
        }

        // Reconcile the physical file with the verified lines so future
        // appends re-extend a clean chain.
        let mut clean: Vec<u8> = Vec::with_capacity(bytes.len());
        for l in &raw_lines {
            clean.extend_from_slice(l.as_bytes());
            clean.push(b'\n');
        }
        if clean != bytes {
            dropped = dropped.max(1);
            if bytes.starts_with(&clean) {
                // Pure tail damage: truncate in place.
                file.set_len(clean.len() as u64)
                    .map_err(|e| JournalError::Io(format!("truncate {}: {e}", path.display())))?;
            } else {
                // Interior damage (the survivors re-anchored past a corrupt
                // span): rewrite the verified lines atomically.
                let tmp = dir.join(format!("{JOURNAL_FILE}.tmp"));
                {
                    let mut f = vfs
                        .create(&tmp)
                        .map_err(|e| JournalError::Io(format!("create {}: {e}", tmp.display())))?;
                    f.write_all(&clean)
                        .and_then(|()| f.sync_all())
                        .map_err(|e| JournalError::Io(format!("write {}: {e}", tmp.display())))?;
                }
                vfs.rename(&tmp, &path)
                    .map_err(|e| JournalError::Io(format!("rename {}: {e}", path.display())))?;
                let _ = vfs.sync_dir(dir);
                file = vfs
                    .open_append(&path)
                    .map_err(|e| JournalError::Io(format!("reopen {}: {e}", path.display())))?;
            }
        }
        // The chain position resumes from the last entry; with an empty WAL
        // (everything compacted) it resumes from the newest checkpoint.
        let (next_seq, last_hash) = match entries.last() {
            Some(e) => (e.seq + 1, u64::from_str_radix(&e.hash, 16).unwrap_or(0)),
            None => checkpoints.last().map_or((0, 0), |c| (c.upto_seq, c.chain)),
        };
        Ok(Journal {
            dir: dir.to_path_buf(),
            path,
            vfs,
            file,
            entries,
            raw_lines,
            last_hash,
            next_seq,
            durable_len: clean.len() as u64,
            recovered_torn_tail: dropped,
            checkpoints,
            corrupt_checkpoints,
            ckpt_read_errors,
            read_only: None,
            run: None,
            crash_hook: None,
            _lock: lock,
            rec: allhands_obs::Recorder::disabled(),
        })
    }

    /// Attach a metrics recorder (counts appends, fsyncs, replay hits) and
    /// surface recovery events observed at open time, when no recorder was
    /// attached yet: silent data-loss must be visible in the run report.
    pub fn set_recorder(&mut self, rec: allhands_obs::Recorder) {
        self.rec = rec;
        if self.recovered_torn_tail > 0 {
            self.rec.incr("journal.torn_tail_recovered");
            self.rec.add("journal.dropped_entries", self.recovered_torn_tail as u64);
        }
        if self.corrupt_checkpoints > 0 {
            self.rec
                .add("journal.checkpoint.corrupt_skipped", self.corrupt_checkpoints as u64);
        }
        if self.ckpt_read_errors > 0 {
            self.rec.add("journal.ckpt.read_errors", self.ckpt_read_errors as u64);
        }
    }

    /// Install the crash-seam callback (see [`CrashHook`]).
    pub fn set_crash_hook(&mut self, hook: CrashHook) {
        self.crash_hook = Some(hook);
    }

    fn hook(&self, name: &str) {
        if let Some(h) = &self.crash_hook {
            h(name);
        }
    }

    /// Lenient line parse: extract the fields without chain verification
    /// (the caller decides which anchor to verify against).
    fn parse_line(line: &str) -> Option<(u64, String, String, String, Value)> {
        // `str::parse` builds the Value tree once; the fields are then moved
        // out rather than cloned. Journal opens walk every surviving line,
        // so this is the read path's per-entry cost.
        let v: Value = line.parse().ok()?;
        let Value::Object(mut obj) = v else { return None };
        let seq = match obj.get("seq") {
            Some(Value::U64(n)) => *n,
            Some(Value::I64(n)) if *n >= 0 => *n as u64,
            _ => return None,
        };
        let Some(Value::String(stage)) = obj.remove("stage") else { return None };
        let Some(Value::String(key)) = obj.remove("key") else { return None };
        let Some(Value::String(hash)) = obj.remove("hash") else { return None };
        let payload = obj.remove("payload")?;
        Some((seq, stage, key, hash, payload))
    }

    /// Marker encoded in a checkpoint file name, if it is one.
    fn checkpoint_marker(path: &Path) -> Option<u64> {
        let name = path.file_name()?.to_str()?;
        name.strip_prefix("ckpt-")?.strip_suffix(".json")?.parse::<u64>().ok()
    }

    /// Load every checkpoint file in `dir`, hash-verifying each. Corrupt or
    /// torn files are counted and skipped in favor of older ones; files
    /// whose *read* errored are counted separately (an I/O failure is not
    /// evidence of corruption, and hiding it would misattribute the fallback
    /// to an older checkpoint). A failed directory listing is a hard error:
    /// treating it as "no checkpoints" would discard the chain anchors the
    /// compacted WAL needs, silently dropping every surviving entry.
    fn load_checkpoints(
        dir: &Path,
        vfs: &dyn Vfs,
    ) -> Result<(Vec<CheckpointRecord>, usize, usize), JournalError> {
        let mut paths: Vec<PathBuf> = vfs
            .read_dir(dir)
            .map_err(|e| JournalError::Io(format!("list {}: {e}", dir.display())))?
            .into_iter()
            .filter(|p| Self::checkpoint_marker(p).is_some())
            .collect();
        paths.sort();
        let mut out = Vec::new();
        let mut corrupt = 0usize;
        let mut read_errors = 0usize;
        for p in paths {
            let bytes = match vfs.read(&p) {
                Ok(b) => b,
                Err(_) => {
                    read_errors += 1;
                    continue;
                }
            };
            match Self::load_checkpoint(&p, &bytes) {
                Some(c) => out.push(c),
                None => corrupt += 1,
            }
        }
        Ok((out, corrupt, read_errors))
    }

    fn load_checkpoint(path: &Path, bytes: &[u8]) -> Option<CheckpointRecord> {
        let marker_from_name = Self::checkpoint_marker(path)?;
        let text = std::str::from_utf8(bytes).ok()?;
        let c = Self::parse_checkpoint_text(text)?;
        (c.marker == marker_from_name).then_some(c)
    }

    /// Parse and hash-verify one checkpoint record from its exact file
    /// text. Shared by the open-time loader and bootstrap-bundle
    /// verification (a bundle carries the checkpoint as its file line).
    fn parse_checkpoint_text(text: &str) -> Option<CheckpointRecord> {
        // Parse once and move the payload out: checkpoint payloads carry the
        // whole session state, and every open loads every retained file, so
        // a redundant deep clone here is measured directly in recovery time.
        let v: Value = text.trim_end().parse().ok()?;
        let Value::Object(mut obj) = v else { return None };
        let as_u64 = |obj: &Map, k: &str| match obj.get(k) {
            Some(Value::U64(n)) => Some(*n),
            Some(Value::I64(n)) if *n >= 0 => Some(*n as u64),
            _ => None,
        };
        if as_u64(&obj, "v") != Some(1) {
            return None;
        }
        let marker = as_u64(&obj, "marker")?;
        let upto_seq = as_u64(&obj, "upto_seq")?;
        let Some(Value::String(chain_hex)) = obj.remove("chain") else { return None };
        let chain = u64::from_str_radix(&chain_hex, 16).ok()?;
        let Some(Value::String(fingerprint)) = obj.remove("fingerprint") else { return None };
        let Some(Value::String(hash_hex)) = obj.remove("hash") else { return None };
        let payload = obj.remove("payload")?;
        let recorded = u64::from_str_radix(&hash_hex, 16).ok()?;
        (recorded == checkpoint_hash(marker, upto_seq, chain, &fingerprint, &payload)).then_some(
            CheckpointRecord { marker, upto_seq, chain, fingerprint, hash: hash_hex, payload },
        )
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// All verified entries, in chain order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Number of verified entries currently in the WAL.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the WAL holds no entries (compaction can make this true on a
    /// journal that still has checkpoints — see [`Journal::has_checkpoints`]).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `open` had to drop a torn/corrupt portion (≥1 line units lost
    /// to a crash or corruption; the interrupted work will be replayed).
    pub fn recovered_torn_tail(&self) -> bool {
        self.recovered_torn_tail > 0
    }

    /// How many line units `open` dropped (torn tail + corrupt interior).
    pub fn dropped_entries(&self) -> usize {
        self.recovered_torn_tail
    }

    /// Durable checkpoints, ascending by marker.
    pub fn checkpoints(&self) -> &[CheckpointRecord] {
        &self.checkpoints
    }

    /// Whether any durable checkpoint exists.
    pub fn has_checkpoints(&self) -> bool {
        !self.checkpoints.is_empty()
    }

    /// Checkpoint files skipped at open time because their hash failed.
    pub fn corrupt_checkpoints_skipped(&self) -> usize {
        self.corrupt_checkpoints
    }

    /// Whether the write path has tripped into read-only degraded mode.
    pub fn is_read_only(&self) -> bool {
        self.read_only.is_some()
    }

    /// Why the journal is read-only, when it is.
    pub fn read_only_reason(&self) -> Option<&str> {
        self.read_only.as_deref()
    }

    /// The seq the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Count one write-path I/O fault, classified by error kind.
    fn count_io_fault(&self, e: &std::io::Error, site: &str) {
        let label = if site == "fsync" {
            "fsync"
        } else if site == "rename" {
            "rename"
        } else if vfs::is_enospc(e) {
            "enospc"
        } else if e.kind() == std::io::ErrorKind::WriteZero {
            "short_write"
        } else {
            "eio"
        };
        self.rec.incr(&format!("journal.io_faults.{label}"));
    }

    /// Trip read-only degraded mode: every subsequent write returns
    /// [`JournalError::ReadOnly`] until the journal is reopened; reads keep
    /// serving.
    fn trip_read_only(&mut self, reason: String) {
        if self.read_only.is_none() {
            self.rec.incr("journal.readonly_trips");
            self.read_only = Some(reason);
        }
    }

    /// Write `line` + newline and fsync, advancing `durable_len` only on
    /// full success.
    fn write_line_durably(&mut self, line: &str) -> Result<(), WriteFail> {
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.write_all(b"\n"))
            .map_err(WriteFail::Write)?;
        self.file.sync_all().map_err(WriteFail::Fsync)?;
        self.durable_len += line.len() as u64 + 1;
        Ok(())
    }

    /// Force the WAL back to its last durable length after a failed write:
    /// the bytes past `durable_len` are a torn, unacknowledged record and
    /// must not precede the next append. Returns false (and trips
    /// read-only) if even the truncate fails — the file state is then
    /// unknowable and further writes would be unsafe.
    fn salvage_tail(&mut self) -> bool {
        if self.file.set_len(self.durable_len).is_ok() {
            return true;
        }
        // The poisoned-handle path: reopen and retry once on a fresh
        // handle before giving up.
        if let Ok(mut f) = self.vfs.open_append(&self.path) {
            if f.set_len(self.durable_len).is_ok() {
                self.file = f;
                return true;
            }
        }
        self.trip_read_only(
            "could not restore the WAL to its last durable length after a write failure"
                .to_string(),
        );
        false
    }

    /// Recover from a failed fsync. The kernel may have already dropped
    /// the dirty pages (and a fault-injecting Vfs simulates exactly that),
    /// so the only safe move is: never acknowledge the entry, reopen the
    /// handle, and force the file back to the last durable length. Acting
    /// as if the write might still be durable is the fsyncgate bug.
    fn poison_recover(&mut self) {
        match self.vfs.open_append(&self.path) {
            Ok(mut f) => {
                if f.set_len(self.durable_len).is_ok() {
                    self.file = f;
                } else {
                    self.trip_read_only(
                        "could not re-verify the WAL tail after a failed fsync".to_string(),
                    );
                }
            }
            Err(e) => {
                self.trip_read_only(format!("could not reopen the WAL after a failed fsync: {e}"));
            }
        }
    }

    /// Append one snapshot entry and make it durable (flush + fsync) before
    /// returning. Once this returns `Ok`, the entry survives process death;
    /// on any error the entry is **not** acknowledged and the WAL is forced
    /// back to its last durable prefix.
    ///
    /// Failure policies: a failed fsync poisons the handle (reopen +
    /// re-truncate, never acknowledge). `ENOSPC` triggers one
    /// compact-then-retry; if the retry also fails the journal trips into
    /// read-only degraded mode and this (and every later write) returns
    /// [`JournalError::ReadOnly`].
    pub fn append<T: Serialize>(
        &mut self,
        stage: &str,
        key: &str,
        payload: &T,
    ) -> Result<(), JournalError> {
        if let Some(reason) = &self.read_only {
            return Err(JournalError::ReadOnly(reason.clone()));
        }
        let payload: Value = serde_json::from_str(
            &serde_json::to_string(payload).map_err(|e| JournalError::Codec(e.to_string()))?,
        )
        .map_err(|e| JournalError::Codec(e.to_string()))?;
        let seq = self.next_seq;
        let hash = entry_hash(self.last_hash, seq, stage, key, &payload);
        let hash_hex = format!("{hash:016x}");
        let line = format!(
            "{{\"seq\":{seq},\"stage\":{},\"key\":{},\"hash\":\"{hash_hex}\",\"payload\":{}}}",
            serde_json::to_string(stage).map_err(|e| JournalError::Codec(e.to_string()))?,
            serde_json::to_string(key).map_err(|e| JournalError::Codec(e.to_string()))?,
            payload
        );
        self.commit_line(&line)?;
        self.rec.incr("journal.appends");
        self.rec.incr("journal.fsyncs");
        self.entries.push(Entry {
            seq,
            stage: stage.to_string(),
            key: key.to_string(),
            hash: hash_hex,
            payload,
        });
        self.raw_lines.push(line);
        self.last_hash = hash;
        self.next_seq = seq + 1;
        Ok(())
    }

    /// Make one rendered WAL line durable, applying the full write-failure
    /// policy shared by [`Journal::append`] and [`Journal::append_raw`]: a
    /// failed fsync poisons the handle (reopen + re-truncate, never
    /// acknowledge); `ENOSPC` triggers one compact-then-retry; a second
    /// failure trips read-only degraded mode.
    fn commit_line(&mut self, line: &str) -> Result<(), JournalError> {
        match self.write_line_durably(line) {
            Ok(()) => Ok(()),
            Err(WriteFail::Fsync(e)) => {
                self.count_io_fault(&e, "fsync");
                self.poison_recover();
                Err(JournalError::Io(format!(
                    "append {}: fsync failed, entry not acknowledged: {e}",
                    self.path.display()
                )))
            }
            Err(WriteFail::Write(e)) => {
                self.count_io_fault(&e, "write");
                if !self.salvage_tail() {
                    return Err(JournalError::ReadOnly(
                        self.read_only.clone().unwrap_or_default(),
                    ));
                }
                if !vfs::is_enospc(&e) {
                    return Err(JournalError::Io(format!(
                        "append {}: {e}",
                        self.path.display()
                    )));
                }
                // Disk full: reclaim space (compacted WAL prefix + pruned
                // checkpoint files), then retry the same line once. The
                // compact may itself fail on a full disk — the retry is
                // what decides.
                self.rec.incr("journal.enospc_compactions");
                let _ = self.compact(1);
                match self.write_line_durably(line) {
                    Ok(()) => Ok(()),
                    Err(fail) => {
                        let (site, err) = match &fail {
                            WriteFail::Write(e) => ("write", e),
                            WriteFail::Fsync(e) => ("fsync", e),
                        };
                        self.count_io_fault(err, site);
                        let msg = format!(
                            "append {}: still failing after compact-and-retry: {err}",
                            self.path.display()
                        );
                        match fail {
                            WriteFail::Write(_) => {
                                let _ = self.salvage_tail();
                            }
                            WriteFail::Fsync(_) => self.poison_recover(),
                        }
                        self.trip_read_only(msg);
                        Err(JournalError::ReadOnly(
                            self.read_only.clone().unwrap_or_default(),
                        ))
                    }
                }
            }
        }
    }

    /// The WAL suffix from `cursor` (inclusive) to the chain head, as exact
    /// on-disk lines for replication. Empty when the cursor is already at
    /// the head. Returns [`JournalError::TailGap`] when the cursor predates
    /// the oldest retained entry (compacted away) or an interior
    /// verification gap interrupts the window — either way the follower
    /// cannot extend its chain from here and must re-bootstrap.
    pub fn tail_after(&self, cursor: u64) -> Result<Vec<TailEntry>, JournalError> {
        if cursor >= self.next_seq {
            return Ok(Vec::new());
        }
        let start = self.entries.partition_point(|e| e.seq < cursor);
        let window = &self.entries[start..];
        match window.first() {
            None => Err(JournalError::TailGap { cursor, oldest: self.next_seq }),
            Some(first) if first.seq != cursor => {
                Err(JournalError::TailGap { cursor, oldest: first.seq })
            }
            Some(_) => {
                // Interior corruption can leave a verified-but-gapped entry
                // list; a gap inside the window must not ship silently.
                for (i, e) in window.iter().enumerate() {
                    if e.seq != cursor + i as u64 {
                        return Err(JournalError::TailGap { cursor, oldest: e.seq });
                    }
                }
                Ok(window
                    .iter()
                    .zip(&self.raw_lines[start..])
                    .map(|(e, l)| TailEntry { seq: e.seq, line: l.clone() })
                    .collect())
            }
        }
    }

    /// Install one replicated WAL line — a leader's exact on-disk text from
    /// [`Journal::tail_after`]. The line is verified before it touches the
    /// file: it must parse, continue this journal's seq, and its recorded
    /// hash must extend this journal's chain head. A `header/run` line must
    /// agree with any fingerprint already established. Durability and
    /// failure handling are identical to [`Journal::append`], so the
    /// follower's WAL stays byte-identical to the leader's suffix. Returns
    /// the installed entry.
    pub fn append_raw(&mut self, line: &str) -> Result<Entry, JournalError> {
        if let Some(reason) = &self.read_only {
            return Err(JournalError::ReadOnly(reason.clone()));
        }
        let (seq, stage, key, hash_hex, payload) = Self::parse_line(line).ok_or_else(|| {
            JournalError::Replication("line does not parse as a journal entry".to_string())
        })?;
        if seq != self.next_seq {
            return Err(JournalError::Replication(format!(
                "line has seq {seq}, this journal expects {}",
                self.next_seq
            )));
        }
        let recorded = u64::from_str_radix(&hash_hex, 16)
            .map_err(|_| JournalError::Replication(format!("unparsable hash {hash_hex:?}")))?;
        let expect = entry_hash(self.last_hash, seq, &stage, &key, &payload);
        if recorded != expect {
            return Err(JournalError::Replication(format!(
                "seq {seq} breaks the hash chain (recorded {hash_hex}, expected {expect:016x})"
            )));
        }
        if stage == "header" && key == "run" {
            if let Value::String(fp) = &payload {
                match &self.run {
                    Some(existing) if existing != fp => {
                        return Err(JournalError::Replication(format!(
                            "header fingerprint {fp} conflicts with established run {existing}"
                        )));
                    }
                    _ => self.run = Some(fp.clone()),
                }
            }
        }
        self.commit_line(line)?;
        self.rec.incr("journal.appends");
        self.rec.incr("journal.fsyncs");
        self.rec.incr("journal.replica_appends");
        let entry = Entry {
            seq,
            stage,
            key,
            hash: hash_hex,
            payload,
        };
        self.entries.push(entry.clone());
        self.raw_lines.push(line.to_string());
        self.last_hash = recorded;
        self.next_seq = seq + 1;
        Ok(entry)
    }

    /// The chain head as fixed-width hex — the hash the next append will
    /// link from. Two journals at the same [`Journal::next_seq`] with equal
    /// chain heads hold byte-identical entry histories.
    pub fn chain_head(&self) -> String {
        format!("{:016x}", self.last_hash)
    }

    /// `(next_seq, chain_head)` — the replication cursor position, compared
    /// across leader and followers to assert convergence.
    pub fn chain_position(&self) -> (u64, String) {
        (self.next_seq, self.chain_head())
    }

    /// The run fingerprint this journal is bound to, once established by
    /// `ensure_run`, a bootstrap install, or a replicated header line.
    pub fn run_fingerprint(&self) -> Option<&str> {
        self.run.as_deref()
    }

    /// The exact file line for a checkpoint record, shared by the writer
    /// and bootstrap-bundle export so both produce byte-identical text.
    fn render_checkpoint_line(c: &CheckpointRecord) -> Result<String, JournalError> {
        Ok(format!(
            "{{\"v\":1,\"marker\":{},\"upto_seq\":{},\"chain\":\"{:016x}\",\"fingerprint\":{},\"hash\":\"{}\",\"payload\":{}}}\n",
            c.marker,
            c.upto_seq,
            c.chain,
            serde_json::to_string(&c.fingerprint).map_err(|e| JournalError::Codec(e.to_string()))?,
            c.hash,
            c.payload
        ))
    }

    /// Write one checkpoint file atomically (tmp, half-write seam, fsync,
    /// rename, dir-fsync), cleaning up the tmp (and a torn destination)
    /// on failure. Shared by [`Journal::checkpoint`] and bundle install.
    fn write_checkpoint_file(&self, marker: u64, line: &str) -> Result<(), JournalError> {
        let final_path = self.dir.join(checkpoint_file(marker));
        let tmp = self.dir.join(format!("{}.tmp", checkpoint_file(marker)));
        let written: Result<(), (&'static str, std::io::Error)> = (|| {
            let bytes = line.as_bytes();
            let mid = bytes.len() / 2;
            let mut f = self.vfs.create(&tmp).map_err(|e| ("write", e))?;
            f.write_all(&bytes[..mid]).map_err(|e| ("write", e))?;
            self.hook(&format!("ckpt:{marker}:mid-write"));
            f.write_all(&bytes[mid..])
                .and_then(|()| f.sync_all())
                .map_err(|e| ("write", e))?;
            drop(f);
            self.hook(&format!("ckpt:{marker}:pre-rename"));
            self.vfs.rename(&tmp, &final_path).map_err(|e| ("rename", e))
        })();
        if let Err((site, e)) = written {
            self.count_io_fault(&e, site);
            // Leave no half state behind: the tmp is garbage, and a torn
            // rename may have left a truncated destination that would only
            // be caught (and counted as corruption) at the next open. A
            // write-site failure never touched the destination.
            let _ = self.vfs.remove_file(&tmp);
            if site == "rename" {
                let _ = self.vfs.remove_file(&final_path);
            }
            return Err(JournalError::Io(format!(
                "checkpoint {}: {e}",
                final_path.display()
            )));
        }
        let _ = self.vfs.sync_dir(&self.dir);
        Ok(())
    }

    /// Write checkpoint `marker` atomically: temp file, half-write and full
    /// fsync, rename over the final name, directory fsync. Crash seams fire
    /// the crash hook at every step (`ckpt:{marker}:write-start`,
    /// `:mid-write`, `:pre-rename`, `:committed`); a crash anywhere leaves
    /// either the previous durable checkpoint set or the new one, never a
    /// half state that passes hash verification.
    ///
    /// Writing a marker that already has a durable checkpoint under the
    /// current fingerprint is a no-op: deterministic replay re-reaches
    /// committed checkpoint seams, and rewriting the file would move its
    /// chain anchor away from the seq the compacted WAL actually starts at.
    pub fn checkpoint<T: Serialize>(&mut self, marker: u64, payload: &T) -> Result<(), JournalError> {
        if let Some(reason) = &self.read_only {
            return Err(JournalError::ReadOnly(reason.clone()));
        }
        let fingerprint = self.run.clone().unwrap_or_default();
        if self.checkpoints.iter().any(|c| c.marker == marker && c.fingerprint == fingerprint) {
            self.rec.incr("journal.checkpoint.skipped");
            return Ok(());
        }
        let payload: Value = serde_json::from_str(
            &serde_json::to_string(payload).map_err(|e| JournalError::Codec(e.to_string()))?,
        )
        .map_err(|e| JournalError::Codec(e.to_string()))?;
        let upto_seq = self.next_seq;
        let chain = self.last_hash;
        let hash = checkpoint_hash(marker, upto_seq, chain, &fingerprint, &payload);
        let record = CheckpointRecord {
            marker,
            upto_seq,
            chain,
            fingerprint,
            hash: format!("{hash:016x}"),
            payload,
        };
        let line = Self::render_checkpoint_line(&record)?;
        self.hook(&format!("ckpt:{marker}:write-start"));
        self.write_checkpoint_file(marker, &line)?;
        self.rec.incr("journal.checkpoint.writes");
        self.rec.add("journal.checkpoint.bytes", line.len() as u64);
        self.checkpoints.retain(|c| c.marker != marker);
        self.checkpoints.push(record);
        self.checkpoints.sort_by_key(|a| a.marker);
        self.hook(&format!("ckpt:{marker}:committed"));
        Ok(())
    }

    /// A compaction failure at the tmp-write site: the live WAL was never
    /// touched (the rename did not happen), so cleanup is just counting the
    /// fault and removing the tmp.
    fn compact_write_fail(&self, op: &str, tmp: &Path, e: std::io::Error) -> JournalError {
        self.count_io_fault(&e, "write");
        let _ = self.vfs.remove_file(tmp);
        JournalError::Io(format!("compact {op} {}: {e}", tmp.display()))
    }

    /// Rewrite the WAL file wholesale from the in-memory verified lines and
    /// reopen the append handle. The recovery path for a failed compaction
    /// rename, which may have destroyed the on-disk WAL (a torn rename's
    /// destination *is* the WAL): every line here was verified or
    /// acknowledged, so a full rewrite restores exactly the durable state.
    /// If even this fails, the journal trips read-only — in-memory state is
    /// intact but on-disk durability can no longer be promised.
    fn restore_wal_file(&mut self) -> Result<(), JournalError> {
        let mut clean: Vec<u8> = Vec::new();
        for l in &self.raw_lines {
            clean.extend_from_slice(l.as_bytes());
            clean.push(b'\n');
        }
        let restored: Result<(), std::io::Error> = (|| {
            let mut f = self.vfs.create(&self.path)?;
            f.write_all(&clean)?;
            f.sync_all()
        })();
        match restored.and_then(|()| self.vfs.open_append(&self.path)) {
            Ok(f) => {
                self.file = f;
                self.durable_len = clean.len() as u64;
                self.rec.incr("journal.wal_restores");
                Ok(())
            }
            Err(e) => {
                self.trip_read_only(format!(
                    "could not restore the WAL after a failed compaction rename: {e}"
                ));
                Err(JournalError::ReadOnly(self.read_only.clone().unwrap_or_default()))
            }
        }
    }

    /// Compact the journal: keep the newest `keep_last_k` checkpoints
    /// (minimum 1), prune older checkpoint files, and truncate WAL entries
    /// below the **oldest retained** checkpoint's `upto_seq`. The truncated
    /// WAL's first line then verifies from that checkpoint's recorded chain
    /// head, so the hash chain stays intact. Anchoring at the oldest
    /// retained checkpoint — not the newest — means a later-corrupted
    /// newest checkpoint still leaves an older one plus the surviving delta
    /// records able to recover the full state.
    ///
    /// The WAL rewrite uses the same atomic temp + rename + dir-fsync
    /// protocol as checkpoints, with crash seams `compact:start`,
    /// `:pruned`, `:mid-truncate`, `:pre-rename`, `:committed`.
    pub fn compact(&mut self, keep_last_k: usize) -> Result<CompactStats, JournalError> {
        if let Some(reason) = &self.read_only {
            return Err(JournalError::ReadOnly(reason.clone()));
        }
        self.hook("compact:start");
        self.rec.incr("journal.compact.runs");
        let keep = keep_last_k.max(1);
        let cut = self.checkpoints.len().saturating_sub(keep);
        let pruned = cut;
        self.checkpoints.drain(..cut);
        // Delete files for pruned markers — and any corrupt or superseded
        // stray whose marker is not retained; none of them can anchor a
        // recovery again.
        let retained: Vec<u64> = self.checkpoints.iter().map(|c| c.marker).collect();
        if let Ok(listing) = self.vfs.read_dir(&self.dir) {
            for p in listing {
                if let Some(m) = Self::checkpoint_marker(&p) {
                    if !retained.contains(&m) {
                        let _ = self.vfs.remove_file(&p);
                    }
                }
            }
        }
        self.hook("compact:pruned");
        let anchor_seq = self.checkpoints.first().map_or(0, |c| c.upto_seq);
        let keep_from = self.entries.partition_point(|e| e.seq < anchor_seq);
        let old_bytes: u64 = self.raw_lines.iter().map(|l| l.len() as u64 + 1).sum();
        let mut clean: Vec<u8> = Vec::new();
        for l in &self.raw_lines[keep_from..] {
            clean.extend_from_slice(l.as_bytes());
            clean.push(b'\n');
        }
        let tmp = self.dir.join(format!("{JOURNAL_FILE}.tmp"));
        {
            let mid = clean.len() / 2;
            let mut f = self
                .vfs
                .create(&tmp)
                .map_err(|e| self.compact_write_fail("create", &tmp, e))?;
            f.write_all(&clean[..mid])
                .map_err(|e| self.compact_write_fail("write", &tmp, e))?;
            self.hook("compact:mid-truncate");
            f.write_all(&clean[mid..])
                .and_then(|()| f.sync_all())
                .map_err(|e| self.compact_write_fail("write", &tmp, e))?;
        }
        self.hook("compact:pre-rename");
        if let Err(e) = self.vfs.rename(&tmp, &self.path) {
            // A torn rename destroys the live WAL itself (the destination
            // is the WAL): restore it wholesale from the in-memory verified
            // lines before reporting the failure, so every acknowledged
            // entry is back on disk.
            self.count_io_fault(&e, "rename");
            let _ = self.vfs.remove_file(&tmp);
            self.restore_wal_file()?;
            return Err(JournalError::Io(format!(
                "compact rename {}: {e}",
                self.path.display()
            )));
        }
        let _ = self.vfs.sync_dir(&self.dir);
        // Swap the append handle to the new inode before the commit seam: a
        // crash past this point resumes from the compacted file.
        match self.vfs.open_append(&self.path) {
            Ok(f) => self.file = f,
            Err(e) => {
                self.trip_read_only(format!("could not reopen the WAL after compaction: {e}"));
                return Err(JournalError::Io(format!(
                    "reopen {}: {e}",
                    self.path.display()
                )));
            }
        }
        self.durable_len = clean.len() as u64;
        self.entries.drain(..keep_from);
        self.raw_lines.drain(..keep_from);
        let stats = CompactStats {
            entries_dropped: keep_from,
            checkpoints_pruned: pruned,
            bytes_reclaimed: old_bytes.saturating_sub(clean.len() as u64),
        };
        self.rec.add("journal.compact.entries_dropped", stats.entries_dropped as u64);
        self.rec.add("journal.compact.checkpoints_pruned", stats.checkpoints_pruned as u64);
        self.rec.add("journal.compact.bytes_reclaimed", stats.bytes_reclaimed);
        self.hook("compact:committed");
        Ok(stats)
    }

    /// The raw payload of the latest entry matching `(stage, key)`.
    pub fn find(&self, stage: &str, key: &str) -> Option<&Value> {
        self.rec.incr("journal.lookups");
        let hit = self
            .entries
            .iter()
            .rev()
            .find(|e| e.stage == stage && e.key == key)
            .map(|e| &e.payload);
        if hit.is_some() {
            self.rec.incr("journal.replay_hits");
        }
        hit
    }

    /// Decode the latest entry matching `(stage, key)` into `T`. Returns
    /// `None` when absent; decoding failures surface as errors (a present
    /// but undecodable snapshot is corruption, not a cache miss).
    pub fn lookup<T: Deserialize>(&self, stage: &str, key: &str) -> Result<Option<T>, JournalError> {
        match self.find(stage, key) {
            None => Ok(None),
            Some(v) => serde_json::from_value::<T>(v.clone())
                .map(Some)
                .map_err(|e| JournalError::Codec(format!("{stage}/{key}: {e}"))),
        }
    }

    /// Ensure the journal belongs to run `fingerprint` — the caller's digest
    /// of run inputs (corpus, labels, configuration). A fresh journal
    /// records it; an existing journal must agree, otherwise resuming would
    /// silently mix two different runs. After compaction the header entry
    /// may be gone from the WAL, so retained checkpoints are consulted
    /// first: they carry the same fingerprint.
    pub fn ensure_run(&mut self, fingerprint: &str) -> Result<(), JournalError> {
        // Already established this session (e.g. by a bootstrap install):
        // appending another header entry would fork a bootstrapped follower
        // away from byte-identity with its leader.
        if self.run.as_deref() == Some(fingerprint) {
            return Ok(());
        }
        if let Some(c) = self.checkpoints.last() {
            if !c.fingerprint.is_empty() {
                if c.fingerprint != fingerprint {
                    return Err(JournalError::RunMismatch {
                        expected: fingerprint.to_string(),
                        found: c.fingerprint.clone(),
                    });
                }
                // The fingerprint is already durable in the checkpoint;
                // appending another header entry would churn the WAL on
                // every reopen of a compacted journal — and fork a
                // restarted leader away from byte-identity with a
                // follower bootstrapped from its bundle.
                self.run = Some(fingerprint.to_string());
                return Ok(());
            }
        }
        let out = match self.lookup::<String>("header", "run")? {
            None => self.append("header", "run", &fingerprint.to_string()),
            Some(found) if found == fingerprint => Ok(()),
            Some(found) => Err(JournalError::RunMismatch {
                expected: fingerprint.to_string(),
                found,
            }),
        };
        if out.is_ok() {
            self.run = Some(fingerprint.to_string());
        }
        out
    }

    /// Export a hash-verified bootstrap bundle covering the journal up to
    /// seq `upto` (exclusive, clamped to [`Journal::next_seq`]): the newest
    /// durable checkpoint at or below `upto` plus the WAL lines from its
    /// anchor. A follower installs it with [`Journal::bootstrap_from`] and
    /// replays to the leader's exact state.
    pub fn export_bootstrap(&self, upto: u64) -> Result<BootstrapBundle, JournalError> {
        let upto = upto.min(self.next_seq);
        let ckpt = self.checkpoints.iter().rev().find(|c| c.upto_seq <= upto);
        let anchor = ckpt.map_or(0, |c| c.upto_seq);
        let fingerprint = self
            .run
            .clone()
            .or_else(|| self.lookup::<String>("header", "run").ok().flatten())
            .or_else(|| ckpt.map(|c| c.fingerprint.clone()).filter(|f| !f.is_empty()))
            .ok_or_else(|| {
                JournalError::Bootstrap("journal has no run fingerprint to export".to_string())
            })?;
        let start = self.entries.partition_point(|e| e.seq < anchor);
        let end = self.entries.partition_point(|e| e.seq < upto);
        // The bundle promises a gap-free chain [anchor, upto): entries below
        // the anchor may be compacted away, but inside the window every seq
        // must be present (a verification gap from interior corruption
        // would otherwise ship silently and fail on the follower).
        let mut expect = anchor;
        for e in &self.entries[start..end] {
            if e.seq != expect {
                return Err(JournalError::Bootstrap(format!(
                    "journal cannot cover [{anchor}, {upto}): seq {expect} is missing \
                     (compacted or dropped); request a newer checkpointed offset"
                )));
            }
            expect += 1;
        }
        if expect != upto {
            return Err(JournalError::Bootstrap(format!(
                "journal cannot cover [{anchor}, {upto}): entries end at seq {expect}"
            )));
        }
        let checkpoint = match ckpt {
            Some(c) => Some(Self::render_checkpoint_line(c)?),
            None => None,
        };
        let wal: Vec<String> = self.raw_lines[start..end].to_vec();
        let hash = bundle_hash(&fingerprint, checkpoint.as_deref(), &wal, upto);
        self.rec.incr("journal.bootstrap.exports");
        Ok(BootstrapBundle {
            v: 1,
            fingerprint,
            checkpoint,
            wal,
            upto_seq: upto,
            hash: format!("{hash:016x}"),
        })
    }

    /// Verify and install a bootstrap bundle into this **empty** journal:
    /// check the bundle hash, the checkpoint's content hash, the WAL chain
    /// from the checkpoint's anchor, and fingerprint coherence — all before
    /// the first byte is written. On success the journal holds exactly the
    /// leader's durable state at `bundle.upto_seq` and appends resume from
    /// there.
    pub fn bootstrap_from(&mut self, bundle: &BootstrapBundle) -> Result<(), JournalError> {
        if let Some(reason) = &self.read_only {
            return Err(JournalError::ReadOnly(reason.clone()));
        }
        if !self.entries.is_empty() || !self.checkpoints.is_empty() || self.next_seq != 0 {
            return Err(JournalError::Bootstrap(
                "bootstrap target must be an empty journal".to_string(),
            ));
        }
        if bundle.v != 1 {
            return Err(JournalError::Bootstrap(format!(
                "unsupported bundle version {}",
                bundle.v
            )));
        }
        let expected = bundle_hash(
            &bundle.fingerprint,
            bundle.checkpoint.as_deref(),
            &bundle.wal,
            bundle.upto_seq,
        );
        if bundle.hash != format!("{expected:016x}") {
            return Err(JournalError::Bootstrap(
                "bundle hash mismatch (corrupted in transit or torn on export)".to_string(),
            ));
        }
        let ckpt = match &bundle.checkpoint {
            Some(text) => {
                let c = Self::parse_checkpoint_text(text).ok_or_else(|| {
                    JournalError::Bootstrap(
                        "bundle checkpoint failed parse or content-hash verification".to_string(),
                    )
                })?;
                if c.fingerprint != bundle.fingerprint {
                    return Err(JournalError::Bootstrap(format!(
                        "bundle checkpoint fingerprint {} disagrees with bundle fingerprint {}",
                        c.fingerprint, bundle.fingerprint
                    )));
                }
                Some(c)
            }
            None => None,
        };
        let anchor = ckpt.as_ref().map_or(0, |c| c.upto_seq);
        if ckpt.is_none() && bundle.wal.is_empty() {
            return Err(JournalError::Bootstrap("empty bundle".to_string()));
        }
        // Verify the WAL chain exactly as open() would: seqs contiguous
        // from the anchor, every hash extending the previous one.
        let mut chain = ckpt.as_ref().map_or(0, |c| c.chain);
        let mut entries: Vec<Entry> = Vec::with_capacity(bundle.wal.len());
        for (i, line) in bundle.wal.iter().enumerate() {
            let expect_seq = anchor + i as u64;
            let (seq, stage, key, hash_hex, payload) =
                Self::parse_line(line).ok_or_else(|| {
                    JournalError::Bootstrap(format!("bundle WAL line {i} failed to parse"))
                })?;
            if seq != expect_seq {
                return Err(JournalError::Bootstrap(format!(
                    "bundle WAL line {i} has seq {seq}, expected {expect_seq}"
                )));
            }
            let recorded = u64::from_str_radix(&hash_hex, 16).map_err(|_| {
                JournalError::Bootstrap(format!("bundle WAL line {i} has a malformed hash"))
            })?;
            if recorded != entry_hash(chain, seq, &stage, &key, &payload) {
                return Err(JournalError::Bootstrap(format!(
                    "bundle WAL line {i} breaks the hash chain"
                )));
            }
            if ckpt.is_none() && i == 0 {
                // With no checkpoint the chain starts at the run header;
                // its payload must carry the bundle's fingerprint, or the
                // follower would install a chain for a different run.
                let header_ok = stage == "header"
                    && key == "run"
                    && payload == Value::String(bundle.fingerprint.clone());
                if !header_ok {
                    return Err(JournalError::Bootstrap(
                        "bundle without a checkpoint must start at the run header entry"
                            .to_string(),
                    ));
                }
            }
            chain = recorded;
            entries.push(Entry { seq, stage, key, hash: hash_hex, payload });
        }
        if anchor + bundle.wal.len() as u64 != bundle.upto_seq {
            return Err(JournalError::Bootstrap(format!(
                "bundle covers [{anchor}, {}), but declares upto_seq {}",
                anchor + bundle.wal.len() as u64,
                bundle.upto_seq
            )));
        }
        // Everything verified — install. The checkpoint goes through the
        // same atomic tmp + fsync + rename protocol as a locally written
        // one; the WAL lines are appended and fsynced as one batch.
        if let Some(c) = &ckpt {
            if let Some(text) = &bundle.checkpoint {
                self.write_checkpoint_file(c.marker, text)?;
            }
        }
        let mut buf: Vec<u8> = Vec::new();
        for line in &bundle.wal {
            buf.extend_from_slice(line.as_bytes());
            buf.push(b'\n');
        }
        if !buf.is_empty() {
            match self
                .file
                .write_all(&buf)
                .map_err(WriteFail::Write)
                .and_then(|()| self.file.sync_all().map_err(WriteFail::Fsync))
            {
                Ok(()) => {}
                Err(WriteFail::Write(e)) => {
                    self.count_io_fault(&e, "write");
                    let _ = self.salvage_tail();
                    return Err(JournalError::Io(format!(
                        "bootstrap install {}: {e}",
                        self.path.display()
                    )));
                }
                Err(WriteFail::Fsync(e)) => {
                    self.count_io_fault(&e, "fsync");
                    self.poison_recover();
                    return Err(JournalError::Io(format!(
                        "bootstrap install {}: fsync failed, install not acknowledged: {e}",
                        self.path.display()
                    )));
                }
            }
            self.durable_len += buf.len() as u64;
        }
        self.last_hash = chain;
        self.next_seq = bundle.upto_seq;
        self.entries = entries;
        self.raw_lines = bundle.wal.clone();
        if let Some(c) = ckpt {
            self.checkpoints = vec![c];
        }
        self.run = Some(bundle.fingerprint.clone());
        self.rec.incr("journal.bootstrap.installs");
        Ok(())
    }
}

/// Decode a raw journal or checkpoint payload into `T` (shared by replay
/// and point-in-time recovery).
pub fn decode<T: Deserialize>(v: &Value) -> Result<T, JournalError> {
    serde_json::from_value::<T>(v.clone()).map_err(|e| JournalError::Codec(e.to_string()))
}

/// Convenience fingerprint helper: FNV-1a over an iterator of byte chunks,
/// rendered as fixed-width hex. Callers feed in everything that defines a
/// run (texts, labels, seeds) so [`Journal::ensure_run`] can refuse to
/// resume the wrong journal.
pub fn fingerprint<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> String {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for part in parts {
        fnv1a(&mut h, &(part.len() as u64).to_le_bytes());
        fnv1a(&mut h, part);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::fs::OpenOptions;
    use std::io::Write as _;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Snap {
        labels: Vec<String>,
        count: u64,
    }

    fn scratch(name: &str) -> PathBuf {
        // Under the workspace `target/` so interrupted tests never dirty
        // `git status`; successful tests clean up after themselves anyway.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/test-journals")
            .join(format!("journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_reload_roundtrip() {
        let dir = scratch("roundtrip");
        let snap = Snap { labels: vec!["a".into(), "b".into()], count: 7 };
        {
            let mut j = Journal::open(&dir).unwrap();
            assert!(j.is_empty());
            j.ensure_run("f00d").unwrap();
            j.append("stage", "classified", &snap).unwrap();
            j.append("qa", "q0", &"answer text".to_string()).unwrap();
        }
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.len(), 3);
        assert!(!j.recovered_torn_tail());
        assert_eq!(j.lookup::<Snap>("stage", "classified").unwrap(), Some(snap));
        assert_eq!(j.lookup::<String>("qa", "q0").unwrap(), Some("answer text".into()));
        assert_eq!(j.lookup::<Snap>("stage", "missing").unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn later_entries_shadow_earlier_ones() {
        let dir = scratch("shadow");
        let mut j = Journal::open(&dir).unwrap();
        j.append("stage", "k", &1u64).unwrap();
        j.append("stage", "k", &2u64).unwrap();
        assert_eq!(j.lookup::<u64>("stage", "k").unwrap(), Some(2));
        drop(j);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_replayable() {
        let dir = scratch("torn");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.append("stage", "one", &1u64).unwrap();
            j.append("stage", "two", &2u64).unwrap();
        }
        // Simulate a crash mid-append: half a line at the tail.
        let path = dir.join(JOURNAL_FILE);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"seq\":2,\"stage\":\"stage\",\"key\":\"three\",\"ha").unwrap();
        drop(f);
        let mut j = Journal::open(&dir).unwrap();
        assert!(j.recovered_torn_tail());
        assert_eq!(j.len(), 2);
        assert_eq!(j.lookup::<u64>("stage", "two").unwrap(), Some(2));
        // The chain re-extends cleanly after recovery.
        j.append("stage", "three", &3u64).unwrap();
        drop(j);
        let j2 = Journal::open(&dir).unwrap();
        assert!(!j2.recovered_torn_tail());
        assert_eq!(j2.lookup::<u64>("stage", "three").unwrap(), Some(3));
        drop(j2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unterminated_final_line_is_torn_even_if_it_parses() {
        let dir = scratch("noeol");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.append("stage", "one", &1u64).unwrap();
            j.append("stage", "two", &2u64).unwrap();
        }
        // Simulate a crash that tore off only the trailing newline: the
        // final line is complete, valid JSON with a matching hash — but
        // unterminated. It must be treated as torn, otherwise the next
        // append concatenates onto it and a later open drops both lines.
        let path = dir.join(JOURNAL_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let stripped = text.strip_suffix('\n').unwrap();
        std::fs::write(&path, stripped).unwrap();
        {
            let mut j = Journal::open(&dir).unwrap();
            assert!(j.recovered_torn_tail());
            assert_eq!(j.len(), 1);
            // Replay the dropped unit of work, then add a genuinely new
            // entry — the acknowledged append must survive the next open.
            j.append("stage", "two", &2u64).unwrap();
            j.append("stage", "three", &3u64).unwrap();
        }
        let j = Journal::open(&dir).unwrap();
        assert!(!j.recovered_torn_tail());
        assert_eq!(j.len(), 3);
        assert_eq!(j.lookup::<u64>("stage", "two").unwrap(), Some(2));
        assert_eq!(j.lookup::<u64>("stage", "three").unwrap(), Some(3));
        drop(j);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_utf8_tail_is_recovered_not_fatal() {
        let dir = scratch("utf8");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.append("stage", "one", &"naïve café".to_string()).unwrap();
            j.append("stage", "two", &2u64).unwrap();
        }
        // Simulate a crash that cut a multi-byte UTF-8 character in half:
        // the tail is not valid UTF-8, but open() must still recover the
        // valid prefix rather than fail with an I/O error. The bad line is
        // newline-terminated here so the UTF-8 check (not the torn-newline
        // check) is what rejects it.
        let path = dir.join(JOURNAL_FILE);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"seq\":2,\"stage\":\"stage\",\"key\":\"caf\xC3\n").unwrap();
        drop(f);
        let mut j = Journal::open(&dir).unwrap();
        assert!(j.recovered_torn_tail());
        assert_eq!(j.len(), 2);
        assert_eq!(j.lookup::<String>("stage", "one").unwrap(), Some("naïve café".into()));
        // The file is physically clean again: appends extend a valid chain.
        j.append("stage", "three", &3u64).unwrap();
        drop(j);
        let j2 = Journal::open(&dir).unwrap();
        assert!(!j2.recovered_torn_tail());
        assert_eq!(j2.len(), 3);
        drop(j2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_file_corruption_drops_suffix() {
        let dir = scratch("midcorrupt");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.append("stage", "one", &1u64).unwrap();
            j.append("stage", "two", &2u64).unwrap();
            j.append("stage", "three", &3u64).unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        // Flip a payload byte in the *second* entry: its hash no longer
        // matches, so it and entry three are both dropped (no checkpoint
        // anchor exists to re-admit the suffix).
        let corrupted = text.replacen("\"payload\":2", "\"payload\":9", 1);
        assert_ne!(text, corrupted);
        std::fs::write(&path, corrupted).unwrap();
        let j = Journal::open(&dir).unwrap();
        assert!(j.recovered_torn_tail());
        assert_eq!(j.len(), 1);
        assert_eq!(j.lookup::<u64>("stage", "one").unwrap(), Some(1));
        assert_eq!(j.lookup::<u64>("stage", "three").unwrap(), None);
        drop(j);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_fingerprint_mismatch_is_refused() {
        let dir = scratch("fingerprint");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.ensure_run("aaaa").unwrap();
        }
        let mut j = Journal::open(&dir).unwrap();
        assert!(j.ensure_run("aaaa").is_ok());
        let err = j.ensure_run("bbbb").unwrap_err();
        assert!(matches!(err, JournalError::RunMismatch { .. }), "{err}");
        drop(j);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_is_stable_and_input_sensitive() {
        let a = fingerprint([b"alpha".as_slice(), b"beta".as_slice()]);
        let b = fingerprint([b"alpha".as_slice(), b"beta".as_slice()]);
        assert_eq!(a, b);
        // Chunk boundaries matter (length-prefixed): "al"+"phabeta" differs.
        let c = fingerprint([b"al".as_slice(), b"phabeta".as_slice()]);
        assert_ne!(a, c);
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn structural_hash_ignores_formatting_but_not_content() {
        let a: Value = serde_json::from_str("{\"x\": [1, 2.5, \"s\"], \"y\": null}").unwrap();
        let b: Value = serde_json::from_str("{\"x\":[1,2.5,\"s\"],\"y\":null}").unwrap();
        let mut ha = 0u64;
        let mut hb = 0u64;
        hash_value(&mut ha, &a);
        hash_value(&mut hb, &b);
        assert_eq!(ha, hb);
        let c: Value = serde_json::from_str("{\"x\":[1,2.5,\"s\"],\"y\":0}").unwrap();
        let mut hc = 0u64;
        hash_value(&mut hc, &c);
        assert_ne!(ha, hc);
    }

    #[test]
    fn checkpoint_roundtrip_and_compaction() {
        let dir = scratch("ckpt");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.ensure_run("feed").unwrap();
            j.append("ingest", "b00000:aa", &1u64).unwrap();
            j.checkpoint(1, &"state-1".to_string()).unwrap();
            j.append("ingest", "b00001:bb", &2u64).unwrap();
            j.checkpoint(2, &"state-2".to_string()).unwrap();
            j.append("qa", "q000:cc", &3u64).unwrap();
            let stats = j.compact(1).unwrap();
            assert_eq!(stats.checkpoints_pruned, 1);
            // header + both batch records sit below checkpoint 2's anchor.
            assert_eq!(stats.entries_dropped, 3);
            assert!(stats.bytes_reclaimed > 0);
            assert_eq!(j.len(), 1);
            assert_eq!(j.lookup::<u64>("qa", "q000:cc").unwrap(), Some(3));
            // Appends keep extending the re-anchored chain.
            j.append("qa", "q001:dd", &4u64).unwrap();
        }
        let j = Journal::open(&dir).unwrap();
        assert!(!j.recovered_torn_tail());
        assert_eq!(j.len(), 2);
        assert_eq!(j.checkpoints().len(), 1);
        assert_eq!(j.checkpoints()[0].marker, 2);
        assert_eq!(decode::<String>(&j.checkpoints()[0].payload).unwrap(), "state-2");
        assert_eq!(j.lookup::<u64>("qa", "q001:dd").unwrap(), Some(4));
        drop(j);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fully_compacted_wal_reopens_from_the_checkpoint_anchor() {
        let dir = scratch("ckpt-empty-wal");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.ensure_run("feed").unwrap();
            j.append("ingest", "b00000:aa", &1u64).unwrap();
            j.checkpoint(1, &"s".to_string()).unwrap();
            j.compact(1).unwrap();
            assert!(j.is_empty());
            assert!(j.has_checkpoints());
        }
        let mut j = Journal::open(&dir).unwrap();
        assert!(j.is_empty());
        assert!(!j.recovered_torn_tail());
        assert_eq!(j.next_seq(), 2); // header + batch record were compacted
        // The chain continues from the checkpoint's recorded head.
        j.append("qa", "q000:aa", &1u64).unwrap();
        drop(j);
        let j2 = Journal::open(&dir).unwrap();
        assert_eq!(j2.len(), 1);
        assert_eq!(j2.entries()[0].seq, 2);
        drop(j2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_is_skipped_for_the_previous_one() {
        let dir = scratch("ckpt-corrupt");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.ensure_run("feed").unwrap();
            j.append("ingest", "b00000:aa", &1u64).unwrap();
            j.checkpoint(1, &"one".to_string()).unwrap();
            j.append("ingest", "b00001:bb", &2u64).unwrap();
            j.checkpoint(2, &"two".to_string()).unwrap();
        }
        // Flip one byte in the middle of the newest checkpoint file.
        let path = dir.join("ckpt-0000000002.json");
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.corrupt_checkpoints_skipped(), 1);
        assert_eq!(j.checkpoints().len(), 1);
        assert_eq!(j.checkpoints()[0].marker, 1);
        // The WAL itself still verifies in full (header + both batches).
        assert_eq!(j.len(), 3);
        drop(j);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interior_corruption_reanchors_at_a_checkpoint() {
        let dir = scratch("reanchor");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.append("stage", "one", &1u64).unwrap();
            j.checkpoint(1, &"s".to_string()).unwrap();
            j.append("stage", "two", &2u64).unwrap();
            j.append("stage", "three", &3u64).unwrap();
        }
        // Corrupt entry "one" (seq 0): without checkpoints everything after
        // it would be dropped; the checkpoint's recorded chain head lets
        // verification restart at seq 1.
        let path = dir.join(JOURNAL_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let corrupted = text.replacen("\"payload\":1", "\"payload\":8", 1);
        assert_ne!(text, corrupted);
        std::fs::write(&path, corrupted).unwrap();
        let j = Journal::open(&dir).unwrap();
        assert!(j.recovered_torn_tail());
        assert_eq!(j.dropped_entries(), 1);
        assert_eq!(j.lookup::<u64>("stage", "one").unwrap(), None);
        assert_eq!(j.lookup::<u64>("stage", "two").unwrap(), Some(2));
        assert_eq!(j.lookup::<u64>("stage", "three").unwrap(), Some(3));
        drop(j);
        // The rewrite is durable: a second open sees a clean file.
        let j2 = Journal::open(&dir).unwrap();
        assert!(!j2.recovered_torn_tail());
        assert_eq!(j2.len(), 2);
        drop(j2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ensure_run_survives_compaction_via_checkpoints() {
        let dir = scratch("ckpt-run");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.ensure_run("feed").unwrap();
            j.append("ingest", "b00000:aa", &1u64).unwrap();
            j.checkpoint(1, &"s".to_string()).unwrap();
            j.compact(1).unwrap();
            assert!(j.is_empty()); // the header entry was compacted away
        }
        let mut j = Journal::open(&dir).unwrap();
        let err = j.ensure_run("beef").unwrap_err();
        assert!(matches!(err, JournalError::RunMismatch { .. }), "{err}");
        assert!(j.ensure_run("feed").is_ok());
        drop(j);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_open_of_a_live_journal_is_locked() {
        let dir = scratch("lock");
        let j = Journal::open(&dir).unwrap();
        let err = match Journal::open(&dir) {
            Ok(_) => panic!("second open of a live journal must be refused"),
            Err(e) => e,
        };
        assert!(matches!(err, JournalError::Locked { .. }), "{err}");
        assert!(err.to_string().contains("locked"), "{err}");
        drop(j);
        let j2 = Journal::open(&dir).unwrap();
        drop(j2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_lock_from_a_dead_process_is_reclaimed() {
        let dir = scratch("stale-lock");
        std::fs::create_dir_all(&dir).unwrap();
        // No live process has pid 0; the lock is stale and reclaimed.
        std::fs::write(dir.join(LOCK_FILE), "0").unwrap();
        let j = Journal::open(&dir).unwrap();
        drop(j);
        // A garbled pid counts as a torn lock write — also reclaimed.
        std::fs::write(dir.join(LOCK_FILE), "not-a-pid").unwrap();
        let j = Journal::open(&dir).unwrap();
        drop(j);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stray_tmp_files_are_cleaned_at_open() {
        let dir = scratch("tmp-clean");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("ckpt-0000000003.json.tmp"), "half a checkp").unwrap();
        std::fs::write(dir.join(format!("{JOURNAL_FILE}.tmp")), "half a wal").unwrap();
        let j = Journal::open(&dir).unwrap();
        assert!(j.is_empty());
        assert!(!j.has_checkpoints());
        drop(j);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bootstrap_roundtrip_without_checkpoint() {
        let leader = scratch("boot-plain-leader");
        let follower = scratch("boot-plain-follower");
        let bundle = {
            let mut j = Journal::open(&leader).unwrap();
            j.ensure_run("f00d").unwrap();
            j.append("ingest", "b00000:aa", &1u64).unwrap();
            j.append("ingest", "b00001:bb", &2u64).unwrap();
            j.export_bootstrap(j.next_seq()).unwrap()
        };
        assert!(bundle.checkpoint.is_none());
        assert_eq!(bundle.wal.len(), 3); // header + two batches
        let mut f = Journal::open(&follower).unwrap();
        f.bootstrap_from(&bundle).unwrap();
        assert_eq!(f.next_seq(), 3);
        assert!(f.ensure_run("f00d").is_ok());
        assert_eq!(f.lookup::<u64>("ingest", "b00001:bb").unwrap(), Some(2));
        // The install is durable and the chain extends across a reopen.
        f.append("ingest", "b00002:cc", &3u64).unwrap();
        drop(f);
        let f2 = Journal::open(&follower).unwrap();
        assert!(!f2.recovered_torn_tail());
        assert_eq!(f2.len(), 4);
        drop(f2);
        std::fs::remove_dir_all(&leader).unwrap();
        std::fs::remove_dir_all(&follower).unwrap();
    }

    #[test]
    fn bootstrap_roundtrip_with_checkpoint_and_compacted_leader() {
        let leader = scratch("boot-ckpt-leader");
        let follower = scratch("boot-ckpt-follower");
        let (bundle, leader_lines) = {
            let mut j = Journal::open(&leader).unwrap();
            j.ensure_run("feed").unwrap();
            j.append("ingest", "b00000:aa", &1u64).unwrap();
            j.checkpoint(1, &"state-1".to_string()).unwrap();
            j.compact(1).unwrap(); // header + batch now live only in the checkpoint
            j.append("ingest", "b00001:bb", &2u64).unwrap();
            j.append("qa", "q000:cc", &3u64).unwrap();
            let b = j.export_bootstrap(j.next_seq()).unwrap();
            (b, std::fs::read(leader.join(JOURNAL_FILE)).unwrap())
        };
        assert!(bundle.checkpoint.is_some());
        assert_eq!(bundle.wal.len(), 2);
        let mut f = Journal::open(&follower).unwrap();
        f.bootstrap_from(&bundle).unwrap();
        assert_eq!(f.checkpoints().len(), 1);
        assert_eq!(decode::<String>(&f.checkpoints()[0].payload).unwrap(), "state-1");
        assert_eq!(f.lookup::<u64>("qa", "q000:cc").unwrap(), Some(3));
        assert!(f.ensure_run("feed").is_ok());
        drop(f);
        // Byte-identical WAL and checkpoint files on both sides.
        assert_eq!(std::fs::read(follower.join(JOURNAL_FILE)).unwrap(), leader_lines);
        assert_eq!(
            std::fs::read(follower.join("ckpt-0000000001.json")).unwrap(),
            std::fs::read(leader.join("ckpt-0000000001.json")).unwrap()
        );
        std::fs::remove_dir_all(&leader).unwrap();
        std::fs::remove_dir_all(&follower).unwrap();
    }

    #[test]
    fn bootstrap_rejects_tampered_bundles_and_nonempty_targets() {
        let leader = scratch("boot-reject-leader");
        let follower = scratch("boot-reject-follower");
        let bundle = {
            let mut j = Journal::open(&leader).unwrap();
            j.ensure_run("f00d").unwrap();
            j.append("ingest", "b00000:aa", &1u64).unwrap();
            j.export_bootstrap(j.next_seq()).unwrap()
        };
        // Tampered WAL line: bundle hash catches it.
        let mut t = bundle.clone();
        t.wal[1] = t.wal[1].replace("\"payload\":1", "\"payload\":9");
        let mut f = Journal::open(&follower).unwrap();
        let err = f.bootstrap_from(&t).unwrap_err();
        assert!(matches!(err, JournalError::Bootstrap(_)), "{err}");
        // Re-hashed tampered line: the chain check catches it.
        t.hash = format!(
            "{:016x}",
            bundle_hash(&t.fingerprint, t.checkpoint.as_deref(), &t.wal, t.upto_seq)
        );
        let err = f.bootstrap_from(&t).unwrap_err();
        assert!(matches!(err, JournalError::Bootstrap(_)), "{err}");
        assert!(f.is_empty(), "a rejected bundle must install nothing");
        // A non-empty journal refuses installation.
        f.append("stage", "k", &1u64).unwrap();
        let err = f.bootstrap_from(&bundle).unwrap_err();
        assert!(matches!(err, JournalError::Bootstrap(_)), "{err}");
        drop(f);
        std::fs::remove_dir_all(&leader).unwrap();
        std::fs::remove_dir_all(&follower).unwrap();
    }

    #[test]
    fn export_refuses_a_compacted_away_window() {
        let dir = scratch("boot-gap");
        let mut j = Journal::open(&dir).unwrap();
        j.ensure_run("feed").unwrap();
        j.append("ingest", "b00000:aa", &1u64).unwrap();
        j.checkpoint(1, &"s".to_string()).unwrap();
        j.compact(1).unwrap();
        // Entries [0, 2) are gone; only the checkpoint can anchor them. An
        // export below the checkpoint's anchor cannot be satisfied.
        let err = j.export_bootstrap(1).unwrap_err();
        assert!(matches!(err, JournalError::Bootstrap(_)), "{err}");
        // At or past the anchor it succeeds (checkpoint + empty suffix).
        let b = j.export_bootstrap(j.next_seq()).unwrap();
        assert!(b.checkpoint.is_some());
        assert!(b.wal.is_empty());
        drop(j);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sustained_enospc_trips_read_only_and_reads_keep_serving() {
        use super::vfs::{FaultVfs, IoFaultKind, IoFaultPlan};
        let dir = scratch("enospc-trip");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.ensure_run("feed").unwrap();
            j.append("ingest", "b00000:aa", &1u64).unwrap();
        }
        // Count clean ops, then replay with every write failing ENOSPC
        // from the first append on.
        let probe = Arc::new(FaultVfs::new(IoFaultPlan::none()));
        {
            let j = Journal::open_with(&dir, Arc::clone(&probe) as Arc<dyn Vfs>).unwrap();
            drop(j);
        }
        let fault = Arc::new(FaultVfs::new(IoFaultPlan::from_op(
            probe.ops(),
            IoFaultKind::Enospc,
        )));
        let mut j = Journal::open_with(&dir, Arc::clone(&fault) as Arc<dyn Vfs>).unwrap();
        assert!(!j.is_read_only());
        let err = j.append("ingest", "b00001:bb", &2u64).unwrap_err();
        assert!(matches!(err, JournalError::ReadOnly(_)), "{err}");
        assert!(j.is_read_only());
        // Reads keep serving; writes stay refused.
        assert_eq!(j.lookup::<u64>("ingest", "b00000:aa").unwrap(), Some(1));
        assert!(matches!(
            j.append("ingest", "b00002:cc", &3u64).unwrap_err(),
            JournalError::ReadOnly(_)
        ));
        assert!(matches!(
            j.checkpoint(9, &"s".to_string()).unwrap_err(),
            JournalError::ReadOnly(_)
        ));
        drop(j);
        // Reopen on a healthy disk: the unacknowledged entry is absent, the
        // acknowledged prefix intact, and appends work again.
        let mut j = Journal::open(&dir).unwrap();
        assert!(!j.recovered_torn_tail(), "salvage already truncated the torn record");
        assert_eq!(j.lookup::<u64>("ingest", "b00001:bb").unwrap(), None);
        j.append("ingest", "b00001:bb", &2u64).unwrap();
        drop(j);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_fsync_never_acknowledges_and_recovers_on_retry() {
        use super::vfs::{FaultVfs, IoFaultKind, IoFaultPlan};
        let dir = scratch("fsync-poison");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.ensure_run("feed").unwrap();
        }
        let probe = Arc::new(FaultVfs::new(IoFaultPlan::none()));
        {
            let j = Journal::open_with(&dir, Arc::clone(&probe) as Arc<dyn Vfs>).unwrap();
            drop(j);
        }
        // The first append after open: open consumes `probe.ops()` ops, the
        // append is two writes (line, newline) then the fsync — fault it.
        let fault = Arc::new(FaultVfs::new(IoFaultPlan::at(
            probe.ops() + 2,
            IoFaultKind::FsyncFail,
        )));
        let mut j = Journal::open_with(&dir, Arc::clone(&fault) as Arc<dyn Vfs>).unwrap();
        let before = j.len();
        let err = j.append("ingest", "b00000:aa", &1u64).unwrap_err();
        assert!(matches!(err, JournalError::Io(_)), "{err}");
        assert!(err.to_string().contains("not acknowledged"), "{err}");
        assert_eq!(j.len(), before, "a failed fsync must not acknowledge the entry");
        assert!(!j.is_read_only(), "one failed fsync poisons the handle, not the journal");
        // The handle was reopened and the tail restored: the retry works
        // and survives a reopen.
        j.append("ingest", "b00000:aa", &1u64).unwrap();
        drop(j);
        let j2 = Journal::open(&dir).unwrap();
        assert!(!j2.recovered_torn_tail());
        assert_eq!(j2.lookup::<u64>("ingest", "b00000:aa").unwrap(), Some(1));
        drop(j2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lock_with_recycled_pid_start_token_is_reclaimed() {
        let dir = scratch("pid-reuse");
        std::fs::create_dir_all(&dir).unwrap();
        if let Some(live) = pid_start_token(1) {
            // Pid 1 is alive, but the stamped start token disagrees with
            // the live process — the pid was recycled; the lock is stale.
            std::fs::write(dir.join(LOCK_FILE), format!("1\n{}", live.wrapping_add(7))).unwrap();
            let j = Journal::open(&dir).unwrap();
            drop(j);
            // With the *matching* token, pid 1 really is the holder.
            std::fs::write(dir.join(LOCK_FILE), format!("1\n{live}")).unwrap();
            let err = Journal::open(&dir).err().expect("must be locked");
            assert!(matches!(err, JournalError::Locked { holder: 1, .. }), "{err}");
            // Legacy single-line stamp (no token): liveness alone decides.
            std::fs::write(dir.join(LOCK_FILE), "1").unwrap();
            let err = Journal::open(&dir).err().expect("must be locked");
            assert!(matches!(err, JournalError::Locked { holder: 1, .. }), "{err}");
        }
        let _ = std::fs::remove_file(dir.join(LOCK_FILE));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_and_compaction_fire_crash_hook_seams() {
        use std::sync::{Arc, Mutex};
        let dir = scratch("seams");
        let seen: Arc<Mutex<Vec<String>>> = Arc::default();
        let mut j = Journal::open(&dir).unwrap();
        let sink = Arc::clone(&seen);
        j.set_crash_hook(Box::new(move |name| sink.lock().unwrap().push(name.to_string())));
        j.append("stage", "one", &1u64).unwrap();
        j.checkpoint(1, &"s".to_string()).unwrap();
        j.compact(1).unwrap();
        // A replayed checkpoint at the same marker is skipped (its durable
        // file already anchors the compacted WAL) and fires no seams.
        j.checkpoint(1, &"s".to_string()).unwrap();
        let names = seen.lock().unwrap().clone();
        assert_eq!(
            names,
            vec![
                "ckpt:1:write-start",
                "ckpt:1:mid-write",
                "ckpt:1:pre-rename",
                "ckpt:1:committed",
                "compact:start",
                "compact:pruned",
                "compact:mid-truncate",
                "compact:pre-rename",
                "compact:committed",
            ]
        );
        drop(j);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tail_after_replicates_byte_identically() {
        let leader_dir = scratch("tail-leader");
        let follower_dir = scratch("tail-follower");
        let mut leader = Journal::open(&leader_dir).unwrap();
        leader.ensure_run("feed").unwrap();
        leader.append("ingest", "b00000:aa", &Snap { labels: vec!["x".into()], count: 1 }).unwrap();
        leader.append("qa", "q000:bb", &"answer".to_string()).unwrap();

        let mut follower = Journal::open(&follower_dir).unwrap();
        let mut cursor = follower.next_seq();
        for te in leader.tail_after(cursor).unwrap() {
            let entry = follower.append_raw(&te.line).unwrap();
            assert_eq!(entry.seq, te.seq);
        }
        cursor = follower.next_seq();
        assert_eq!(follower.chain_position(), leader.chain_position());
        assert_eq!(follower.run_fingerprint(), Some("feed"));

        // Tail at head is empty; new leader entries flow incrementally.
        assert!(leader.tail_after(cursor).unwrap().is_empty());
        leader.append("qa", "q001:cc", &"more".to_string()).unwrap();
        for te in leader.tail_after(cursor).unwrap() {
            follower.append_raw(&te.line).unwrap();
        }
        assert_eq!(follower.chain_position(), leader.chain_position());
        assert_eq!(
            std::fs::read(leader_dir.join(JOURNAL_FILE)).unwrap(),
            std::fs::read(follower_dir.join(JOURNAL_FILE)).unwrap()
        );
        drop(leader);
        drop(follower);
        std::fs::remove_dir_all(&leader_dir).unwrap();
        std::fs::remove_dir_all(&follower_dir).unwrap();
    }

    #[test]
    fn append_raw_rejects_gap_fork_and_tamper() {
        let leader_dir = scratch("rawreject-leader");
        let follower_dir = scratch("rawreject-follower");
        let mut leader = Journal::open(&leader_dir).unwrap();
        leader.ensure_run("feed").unwrap();
        leader.append("stage", "one", &1u64).unwrap();
        leader.append("stage", "two", &2u64).unwrap();
        let tail = leader.tail_after(0).unwrap();

        let mut follower = Journal::open(&follower_dir).unwrap();
        // Skipping a line is a seq gap.
        let err = follower.append_raw(&tail[1].line).unwrap_err();
        assert!(matches!(err, JournalError::Replication(_)), "{err}");
        follower.append_raw(&tail[0].line).unwrap();
        // A tampered payload breaks the chain hash.
        let tampered = tail[1].line.replacen("\"payload\":1", "\"payload\":7", 1);
        let err = follower.append_raw(&tampered).unwrap_err();
        assert!(matches!(err, JournalError::Replication(_)), "{err}");
        // Garbage does not parse.
        let err = follower.append_raw("not json").unwrap_err();
        assert!(matches!(err, JournalError::Replication(_)), "{err}");
        // The valid line still installs after the rejects (chain untouched).
        follower.append_raw(&tail[1].line).unwrap();
        follower.append_raw(&tail[2].line).unwrap();
        assert_eq!(follower.chain_position(), leader.chain_position());
        drop(leader);
        drop(follower);
        std::fs::remove_dir_all(&leader_dir).unwrap();
        std::fs::remove_dir_all(&follower_dir).unwrap();
    }

    #[test]
    fn tail_after_reports_compaction_gap() {
        let dir = scratch("tailgap");
        let mut j = Journal::open(&dir).unwrap();
        j.ensure_run("feed").unwrap();
        j.append("ingest", "b00000:aa", &1u64).unwrap();
        j.checkpoint(1, &"s".to_string()).unwrap();
        j.append("qa", "q000:bb", &2u64).unwrap();
        j.compact(1).unwrap();
        // Entries 0..2 are compacted behind the checkpoint; a follower
        // whose cursor predates the anchor must re-bootstrap.
        let err = j.tail_after(0).unwrap_err();
        assert!(
            matches!(err, JournalError::TailGap { cursor: 0, oldest: 2 }),
            "{err}"
        );
        // A cursor at the anchor (or past it) still tails fine.
        assert_eq!(j.tail_after(2).unwrap().len(), 1);
        assert!(j.tail_after(3).unwrap().is_empty());
        drop(j);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
