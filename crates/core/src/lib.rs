//! AllHands — "Ask Me Anything" analytics on large-scale verbatim feedback.
//!
//! The paper's framework in three stages, each reproduced here:
//!
//! 1. **Feedback classification** ([`classification`]): in-context-learning
//!    classification with demonstration retrieval from a vector database
//!    (paper Sec. 3.2) — no fine-tuning, any label set.
//! 2. **Abstractive topic modeling** ([`topic_modeling`]): progressive ICL
//!    topic summarization with optional human-in-the-loop refinement
//!    (Sec. 3.3): reviewer filtering, agglomerative clustering +
//!    re-summarization, BARTScore-filtered retrieval augmentation, and a
//!    second modeling round.
//! 3. **QA agent** (re-exported from `allhands-agent`): natural-language
//!    questions → code → multi-modal answers (Sec. 3.4).
//!
//! The [`AllHands`] facade wires the stages together: feed it raw feedback
//! texts (plus a labeled sample for classification), get a structured
//! [`DataFrame`] and an interactive [`ask`](AllHands::ask) interface.
//!
//! # Quickstart
//!
//! ```
//! use allhands_core::{AllHands, AllHandsConfig};
//! use allhands_dataframe::{Column, DataFrame};
//! use allhands_llm::ModelTier;
//!
//! // A tiny structured feedback frame (normally produced by the pipeline).
//! let frame = DataFrame::new(vec![
//!     Column::from_strs("text", &["app crashes daily", "love the update"]),
//!     Column::from_f64s("sentiment", &[-0.8, 0.9]),
//!     Column::from_str_lists("topics", vec![vec!["crash".into()], vec!["praise".into()]]),
//! ]).unwrap();
//!
//! let mut allhands = AllHands::from_frame(ModelTier::Gpt4, frame, AllHandsConfig::default());
//! let response = allhands.ask("How many feedback entries are there?").unwrap();
//! assert!(response.error.is_none());
//! ```

pub mod classification;
pub mod topic_modeling;

pub use classification::{DemoIndex, IclClassifier, IclConfig};
pub use topic_modeling::{AbstractiveTopicModeler, TopicModelingConfig, TopicModelingResult};

pub use allhands_agent::{AgentConfig, AnswerRecord, QaAgent, Response, ResponseItem};
pub use allhands_journal::{
    vfs::{FaultVfs, IoFaultKind, IoFaultPlan, RealVfs, Vfs},
    BootstrapBundle, Journal, JournalError, TailEntry,
};
pub use allhands_obs::{Recorder, RunReport, SpanGuard};
pub use allhands_resilience::{
    AllHandsError, DegradationEvent, FaultPlan, Head, InjectedCrash, QuarantineRecord,
    ResilienceConfig, ResilienceCtx, ResilienceSnapshot, ResilienceStats, RetryPolicy,
};

use allhands_classify::LabeledExample;
use allhands_dataframe::{Column, DataFrame};
use allhands_embed::Embedding;
use allhands_llm::{ModelSpec, ModelTier, SimLlm};
use allhands_vectordb::{IvfIndex, IvfState, Record, VectorIndex};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Stage-1 journal snapshot: the classified labels plus the resilience
/// state at commit time, so a resumed run replays the fault schedule from
/// exactly where the original left off.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Stage1Snapshot {
    predicted: Vec<String>,
    resilience: ResilienceSnapshot,
}

/// Stage-2 journal snapshot: the full topic-modeling result.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Stage2Snapshot {
    result: TopicModelingResult,
    resilience: ResilienceSnapshot,
}

/// Per-question journal snapshot: everything needed to restore the agent's
/// session (bindings, history) and re-render the answer byte-identically.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct QaSnapshot {
    record: AnswerRecord,
    resilience: ResilienceSnapshot,
}

/// One row whose topics were rewritten by a pending-pool flush.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TopicRewrite {
    row: u64,
    topics: Vec<String>,
}

/// Per-batch ingest journal delta: everything needed to replay the batch
/// byte-identically without re-running classification or re-summarization.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct IngestSnapshot {
    /// The batch texts themselves, so point-in-time recovery can replay
    /// this delta without the caller re-feeding the batch.
    texts: Vec<String>,
    /// Stage-1 labels for the batch rows, in batch order.
    predicted: Vec<String>,
    /// Final topics of the batch rows (post-flush, if one fired).
    topics: Vec<Vec<String>>,
    /// The full topic list after this batch (grows append-only).
    topic_list: Vec<String>,
    /// Row ids still pending re-summarization after this batch.
    pending: Vec<u64>,
    /// Earlier rows whose topics this batch's flush rewrote.
    rewrites: Vec<TopicRewrite>,
    assigned: u64,
    routed: u64,
    flushed: u64,
    coined: Vec<String>,
    resilience: ResilienceSnapshot,
}

/// Full-session checkpoint payload: everything point-in-time recovery
/// needs to rebuild an [`AllHands`] without the WAL prefix the matching
/// compaction dropped. Row embeddings, the demonstration pool, and
/// sentiments are deliberately absent — they are recomputed
/// deterministically from the texts (the embedder is stateless), keeping
/// checkpoints proportional to the structured state, not the vectors. The
/// document index is stored as its layout only; restore refills it from
/// the recomputed row embeddings.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CheckpointState {
    texts: Vec<String>,
    row_labels: Vec<String>,
    doc_topics: Vec<Vec<String>>,
    topic_list: Vec<String>,
    /// Row ids pending re-summarization at checkpoint time.
    pending: Vec<u64>,
    /// Ingest batches applied at checkpoint time (= the checkpoint marker).
    batches: u64,
    /// Questions asked at checkpoint time.
    asked: u64,
    /// The full answer history, so a recovered agent keeps its session
    /// bindings and conversation context.
    answers: Vec<AnswerRecord>,
    resilience: ResilienceSnapshot,
    /// The incremental document index's layout (partitions, record ids,
    /// retrain counters — no vectors), if it was built (`None` preserves
    /// the lazy build-on-first-use behavior across recovery).
    doc_index: Option<IvfState>,
}

/// One committed change to session state — the unit the session reducer
/// ([`AllHands::apply`]) applies, whether it was just decided live or is
/// being replayed from the journal.
enum Delta {
    /// Ingest batch `.0` (0-based ordinal), as its journaled delta record.
    Batch(usize, IngestSnapshot),
    /// The answer to question `.0` (0-based ordinal).
    Answer(usize, AnswerRecord),
}

/// What applying one [`Delta`] produced.
enum Applied {
    Batch(IngestReport),
    /// The re-rendered response, for replayed answers only.
    Answer(Option<Response>),
}

/// The ordinal a journal key carries after its one-letter prefix:
/// `b00042:…` → 42, `q1000:…` → 1000. Keys are written zero-padded
/// (`b{:05}`, `q{:03}`), but the digits run up to the `:`, so ordinals
/// wider than the padding parse in full.
fn key_ordinal(key: &str, prefix: char) -> Option<usize> {
    let (digits, _) = key.strip_prefix(prefix)?.split_once(':')?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Decode a journal entry into the session delta it commits, plus the
/// resilience state recorded with it. `Ok(None)` for entries that carry no
/// session delta (the run header, one-shot stage snapshots).
fn decode_entry(
    e: &allhands_journal::Entry,
) -> Result<Option<(Delta, ResilienceSnapshot)>, String> {
    let ordinal = |prefix| {
        key_ordinal(&e.key, prefix).ok_or_else(|| format!("malformed {} key {:?}", e.stage, e.key))
    };
    match e.stage.as_str() {
        "ingest" => {
            let ord = ordinal('b')?;
            let snap: IngestSnapshot = allhands_journal::decode(&e.payload)
                .map_err(|err| format!("undecodable ingest delta: {err}"))?;
            let resilience = snap.resilience.clone();
            Ok(Some((Delta::Batch(ord, snap), resilience)))
        }
        "qa" => {
            let ord = ordinal('q')?;
            let snap: QaSnapshot = allhands_journal::decode(&e.payload)
                .map_err(|err| format!("undecodable qa snapshot: {err}"))?;
            Ok(Some((Delta::Answer(ord, snap.record), snap.resilience)))
        }
        _ => Ok(None),
    }
}

fn jerr(e: JournalError) -> AllHandsError {
    match e {
        // A read-only trip is its own category: callers must be able to
        // distinguish "durability is gone, queries still work" from a
        // generic pipeline failure.
        JournalError::ReadOnly(m) => AllHandsError::ReadOnly(m),
        e => AllHandsError::Pipeline(format!("journal: {e}")),
    }
}

/// Digest of the durability policy fixed at construction —
/// [`IngestConfig`] plus [`CheckpointPolicy`] — folded into the run
/// fingerprint so the journal header pins the policy: resuming a journal
/// under a different assignment threshold or checkpoint cadence would
/// replay deltas that were cut at different boundaries, so it is refused
/// as a [`JournalError::RunMismatch`] instead of silently diverging.
fn policy_digest(config: &AllHandsConfig) -> String {
    let i = &config.ingest;
    let c = &config.checkpoint;
    format!(
        "assign={:?};pending={};nprobe={};pdocs={};stale={:?};ckpt_every={};ckpt_keep={}",
        i.assign_threshold,
        i.pending_threshold,
        i.ivf_nprobe,
        i.ivf_partition_docs,
        i.ivf_staleness,
        c.every_n_batches,
        c.keep_last_k
    )
}

/// Content fingerprint of a pipeline run's inputs — tier, corpus, labeled
/// demonstrations, predefined topics, durability policy. Deliberately
/// excludes the fault plan: a resumed run passes `crash_at = None` but must
/// match the crashed run's journal header.
fn run_fingerprint(
    tier: ModelTier,
    texts: &[String],
    labeled_sample: &[LabeledExample],
    predefined_topics: &[String],
    policy: &str,
) -> String {
    let tier_label = format!("{tier:?}");
    // Each collection is framed by a section tag and its element count;
    // without the framing, the flat length-prefixed parts would let inputs
    // shifted across collection boundaries (e.g. the last text moved into
    // the first labeled example) collide on the same fingerprint.
    let texts_count = (texts.len() as u64).to_le_bytes();
    let labeled_count = (labeled_sample.len() as u64).to_le_bytes();
    let topics_count = (predefined_topics.len() as u64).to_le_bytes();
    let mut parts: Vec<&[u8]> =
        vec![b"tier", tier_label.as_bytes(), b"texts", &texts_count];
    for t in texts {
        parts.push(t.as_bytes());
    }
    parts.push(b"labeled");
    parts.push(&labeled_count);
    for ex in labeled_sample {
        parts.push(ex.text.as_bytes());
        parts.push(ex.label.as_bytes());
    }
    parts.push(b"topics");
    parts.push(&topics_count);
    for t in predefined_topics {
        parts.push(t.as_bytes());
    }
    parts.push(b"policy");
    parts.push(policy.as_bytes());
    allhands_journal::fingerprint(parts)
}

/// How a run's write-ahead journal is attached.
#[derive(Debug, Clone)]
pub enum JournalMode {
    /// Open or create the journal under the directory; committed snapshots
    /// from an earlier (possibly crashed) run with the same inputs replay
    /// instead of recomputing. This is the classic `analyze_journaled` /
    /// `resume` behavior.
    Continue(PathBuf),
    /// Require a brand-new journal: the run errors if the directory already
    /// holds committed entries, so a fresh run can never silently consume a
    /// stale journal.
    Fresh(PathBuf),
}

impl JournalMode {
    fn dir(&self) -> &Path {
        match self {
            JournalMode::Continue(d) | JournalMode::Fresh(d) => d,
        }
    }
}

/// How observability is attached to a run.
#[derive(Debug, Clone, Default)]
pub enum RecorderMode {
    /// No recording: every instrumentation site is a single branch.
    #[default]
    Disabled,
    /// Record into a fresh [`Recorder`], retrievable afterwards via
    /// [`AllHands::recorder`] / [`AllHands::run_report`].
    Enabled,
    /// Record into a caller-provided handle (e.g. one shared across runs).
    Custom(Recorder),
}

impl RecorderMode {
    fn build(&self) -> Recorder {
        match self {
            RecorderMode::Disabled => Recorder::disabled(),
            RecorderMode::Enabled => Recorder::new(),
            RecorderMode::Custom(rec) => rec.clone(),
        }
    }
}

/// A point-in-time recovery target, counted in ingest batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverPoint {
    /// Restore to the state immediately after the 0-based batch ordinal
    /// was ingested. Errors if the journal's checkpoints + delta records
    /// cannot reach that batch.
    Batch(usize),
    /// Restore to the newest state the journal can reach.
    Latest,
}

/// Typed per-run options, grouped so the facade entry point stays one
/// method as options accrete.
#[derive(Clone, Default)]
pub struct AnalyzeOptions {
    /// Crash-safe journaling (`None` = unjournaled).
    pub journal: Option<JournalMode>,
    /// Metrics/tracing recording (disabled by default).
    pub recorder: RecorderMode,
    /// Point-in-time recovery target (`None` = run / resume normally).
    /// Requires a journal.
    pub recover: Option<RecoverPoint>,
    /// Storage backend for the journal (`None` = the real filesystem).
    /// Lets tests thread a [`FaultVfs`] under every journal I/O.
    pub vfs: Option<Arc<dyn Vfs>>,
    /// Follower bootstrap: install this leader-exported bundle into the
    /// (required, empty) journal before running. Requires a journal mode;
    /// recovery defaults to [`RecoverPoint::Latest`] so the session comes
    /// up holding the leader's state.
    pub bootstrap: Option<BootstrapBundle>,
    /// Read-replica mode: the session serves `ask` / `search_similar` but
    /// refuses `ingest`/`retract` and never journals its own answers — the
    /// only writes to its journal are replicated leader lines applied via
    /// [`AllHands::apply_tail`], keeping the WAL byte-identical to the
    /// leader's. Requires a journal mode.
    pub replica: bool,
}

impl std::fmt::Debug for AnalyzeOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalyzeOptions")
            .field("journal", &self.journal)
            .field("recorder", &self.recorder)
            .field("recover", &self.recover)
            .field("vfs", &self.vfs.as_ref().map(|_| "<dyn Vfs>"))
            .field("bootstrap", &self.bootstrap)
            .field("replica", &self.replica)
            .finish()
    }
}

/// Builder for an [`AllHands`] run — the single entry point replacing the
/// old `analyze` / `analyze_journaled` / `resume` triplet.
///
/// ```
/// use allhands_core::{AllHands, RecorderMode};
/// use allhands_classify::LabeledExample;
/// use allhands_llm::ModelTier;
///
/// let texts = vec!["the app crashes daily".to_string(), "love it".to_string()];
/// let labeled = vec![
///     LabeledExample { text: "crash report".into(), label: "informative".into() },
///     LabeledExample { text: "nice love it".into(), label: "non-informative".into() },
/// ];
/// let (mut ah, frame) = AllHands::builder(ModelTier::Gpt4)
///     .recorder(RecorderMode::Enabled)
///     .analyze(&texts, &labeled, &["crash".into()])
///     .unwrap();
/// assert_eq!(frame.n_rows(), 2);
/// assert!(ah.ask("How many feedback entries are there?").unwrap().error.is_none());
/// assert!(ah.run_report().counter("qa.questions") >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct AllHandsBuilder {
    tier: ModelTier,
    config: AllHandsConfig,
    options: AnalyzeOptions,
}

impl AllHandsBuilder {
    /// Replace the stage configuration (defaults otherwise).
    pub fn config(mut self, config: AllHandsConfig) -> Self {
        self.config = config;
        self
    }

    /// Replace the incremental-ingestion settings. The durability policy is
    /// fixed at construction: it is folded into the run fingerprint the
    /// journal header records, so a journal can only be resumed under the
    /// policy that produced it.
    pub fn ingest_config(mut self, ingest: IngestConfig) -> Self {
        self.config.ingest = ingest;
        self
    }

    /// Replace the checkpoint/compaction retention policy. Like
    /// [`ingest_config`](Self::ingest_config), fixed at construction and
    /// recorded (via the run fingerprint) in the journal header.
    pub fn checkpoints(mut self, policy: CheckpointPolicy) -> Self {
        self.config.checkpoint = policy;
        self
    }

    /// Build a read replica: the session serves `ask` / `search_similar`
    /// but refuses `ingest`/`retract` with [`AllHandsError::ReadOnly`], and
    /// never journals its own answers — its journal only ever receives
    /// replicated leader lines via [`AllHands::apply_tail`], so the WAL
    /// stays byte-identical to the leader's suffix. Combine with
    /// [`bootstrap`](Self::bootstrap) for a first start, or
    /// [`recover_latest`](Self::recover_latest) to reopen an existing
    /// replica journal. Requires a journal mode.
    pub fn replica(mut self) -> Self {
        self.options.replica = true;
        self
    }

    /// Replace the full option set at once.
    pub fn options(mut self, options: AnalyzeOptions) -> Self {
        self.options = options;
        self
    }

    /// Attach a crash-safe write-ahead journal.
    pub fn journal(mut self, mode: JournalMode) -> Self {
        self.options.journal = Some(mode);
        self
    }

    /// Attach observability.
    pub fn recorder(mut self, mode: RecorderMode) -> Self {
        self.options.recorder = mode;
        self
    }

    /// Point-in-time recovery: restore the state immediately after ingest
    /// batch `batch` (0-based) from the journal's checkpoints and delta
    /// records — the nearest checkpoint at or below the target is restored
    /// and the remaining deltas replay forward. Requires
    /// [`JournalMode::Continue`]; [`analyze`](Self::analyze) errors if the
    /// journal cannot reach the requested batch.
    pub fn recover_at(mut self, batch: usize) -> Self {
        self.options.recover = Some(RecoverPoint::Batch(batch));
        self
    }

    /// Point-in-time recovery to the newest state the journal can reach
    /// (all checkpointed batches plus every surviving delta record).
    pub fn recover_latest(mut self) -> Self {
        self.options.recover = Some(RecoverPoint::Latest);
        self
    }

    /// Replace the journal's storage backend (defaults to the real
    /// filesystem). Primarily for fault-injection tests: pass an
    /// `Arc<FaultVfs>` to exercise every journal I/O seam.
    pub fn vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.options.vfs = Some(vfs);
        self
    }

    /// Bootstrap a follower from a leader-exported bundle (see
    /// [`AllHands::export_bootstrap`]): the bundle's checkpoint + WAL
    /// suffix are verified (hash chain + run fingerprint) and installed
    /// into the journal, which must be empty. Requires a journal mode;
    /// unless an explicit recovery point is set, recovery defaults to
    /// [`RecoverPoint::Latest`] so the new session replays the installed
    /// state immediately.
    pub fn bootstrap(mut self, bundle: BootstrapBundle) -> Self {
        self.options.bootstrap = Some(bundle);
        self
    }

    /// Run the full three-stage pipeline on raw texts. See
    /// [`AllHands::builder`] for the contract details.
    pub fn analyze(
        self,
        texts: &[String],
        labeled_sample: &[LabeledExample],
        predefined_topics: &[String],
    ) -> Result<(AllHands, DataFrame), AllHandsError> {
        let run = Run {
            tier: self.tier,
            texts,
            labeled_sample,
            predefined_topics,
            config: self.config,
            recorder: self.options.recorder.build(),
        };
        if self.options.bootstrap.is_some() && self.options.journal.is_none() {
            return Err(AllHandsError::Pipeline(
                "bootstrap requires a journal: attach JournalMode::Continue(dir) (pointing at an empty directory) before bootstrap(bundle)"
                    .to_string(),
            ));
        }
        if self.options.replica && self.options.journal.is_none() {
            return Err(AllHandsError::Pipeline(
                "replica requires a journal: attach JournalMode::Continue(dir) before replica()"
                    .to_string(),
            ));
        }
        let journal = match &self.options.journal {
            None => None,
            Some(mode) => {
                let mut journal = match &self.options.vfs {
                    None => Journal::open(mode.dir()).map_err(jerr)?,
                    Some(vfs) => {
                        Journal::open_with(mode.dir(), Arc::clone(vfs)).map_err(jerr)?
                    }
                };
                if matches!(mode, JournalMode::Fresh(_))
                    && (!journal.is_empty() || journal.has_checkpoints())
                {
                    return Err(AllHandsError::Pipeline(format!(
                        "journal: JournalMode::Fresh requires an empty journal, but {} already holds {} entr{} and {} checkpoint(s)",
                        journal.path().display(),
                        journal.len(),
                        if journal.len() == 1 { "y" } else { "ies" },
                        journal.checkpoints().len()
                    )));
                }
                journal.set_recorder(run.recorder.clone());
                if let Some(bundle) = &self.options.bootstrap {
                    journal.bootstrap_from(bundle).map_err(jerr)?;
                }
                journal.ensure_run(&run.fingerprint()).map_err(jerr)?;
                Some(journal)
            }
        };
        // A bootstrapped follower should come up holding the leader's
        // state, so an unset recovery point defaults to Latest.
        let recover = match (self.options.recover, &self.options.bootstrap) {
            (None, Some(_)) => Some(RecoverPoint::Latest),
            (point, _) => point,
        };
        let replica = self.options.replica;
        let built = match (recover, journal) {
            (Some(point), Some(journal)) => run.recover(journal, point, replica),
            (Some(_), None) => Err(AllHandsError::Pipeline(
                "recover requires a journal: attach JournalMode::Continue(dir) before recover_at / recover_latest"
                    .to_string(),
            )),
            (None, journal) => run.pipeline(journal),
        };
        built.map(|(mut ah, frame)| {
            ah.replica = replica;
            (ah, frame)
        })
    }

    /// Build directly over an already-structured feedback frame, skipping
    /// the structuralization pipeline. Journaling options are not used on
    /// this path (there is no pipeline run to journal); the recorder is.
    pub fn from_frame(self, frame: DataFrame) -> AllHands {
        let recorder = self.options.recorder.build();
        let resilience = resilience_ctx(&self.config, &recorder);
        AllHands::assemble(self.tier, self.config, frame, resilience, None, recorder, None)
    }
}

/// Everything that went sideways during a run: quarantined (poison-pill)
/// documents and degradation notes. The `Display` impl renders the exact
/// human-readable report the old `String`-returning API produced.
#[derive(Debug, Clone)]
pub struct QuarantineReport {
    /// Dead-lettered documents, in quarantine order.
    pub quarantined: Vec<QuarantineRecord>,
    /// Degradation notes, in occurrence order.
    pub degradations: Vec<DegradationEvent>,
}

impl QuarantineReport {
    /// True when nothing was quarantined and nothing degraded.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && self.degradations.is_empty()
    }

    /// Number of quarantined documents.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.len()
    }

    /// Number of degradation notes.
    pub fn degradation_count(&self) -> usize {
        self.degradations.len()
    }
}

impl std::fmt::Display for QuarantineReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            return write!(f, "clean run: no documents quarantined, no degradations");
        }
        writeln!(
            f,
            "degraded run: {} document(s) quarantined, {} degradation note(s)",
            self.quarantined.len(),
            self.degradations.len()
        )?;
        for q in &self.quarantined {
            writeln!(f, "  [{}] doc {}: {}", q.stage, q.doc_id, q.payload)?;
        }
        for d in &self.degradations {
            writeln!(f, "  ({}) {}", d.stage, d.note)?;
        }
        Ok(())
    }
}

/// Incremental-ingestion settings ([`AllHands::ingest`]).
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Minimum cosine similarity between a new document and an existing
    /// topic's embedding for direct assignment; below it the document is
    /// provisionally `"others"` and routed to the pending pool.
    pub assign_threshold: f32,
    /// Pending-pool size that triggers one bounded re-summarization round.
    pub pending_threshold: usize,
    /// Probe width for the incremental document index.
    pub ivf_nprobe: usize,
    /// Target documents per IVF partition when (re)training the document
    /// index; partition count is clamped to `[2, 64]`.
    pub ivf_partition_docs: usize,
    /// Staleness ratio (mutations since train ÷ len) past which the
    /// document index auto-retrains.
    pub ivf_staleness: f32,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            assign_threshold: 0.15,
            pending_threshold: 12,
            ivf_nprobe: 4,
            ivf_partition_docs: 64,
            ivf_staleness: 0.5,
        }
    }
}

/// What one [`AllHands::ingest`] batch did.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// 0-based batch ordinal.
    pub batch: usize,
    /// Rows this batch appended.
    pub new_rows: usize,
    /// Documents attached to an existing topic by embedding similarity.
    pub assigned: usize,
    /// Documents routed to the pending pool (provisionally `"others"`).
    pub routed_pending: usize,
    /// Pending documents re-summarized by this batch's flush (0 = no flush).
    pub flushed: usize,
    /// Topics the flush coined, in discovery order.
    pub coined: Vec<String>,
    /// Whether the document index auto-retrained during this batch.
    pub retrained: bool,
    /// Whether the batch replayed from the journal.
    pub replayed: bool,
    /// The full structured frame after this batch.
    pub frame: DataFrame,
}

/// What one [`AllHands::apply_tail`] call applied to a replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailReport {
    /// Replicated WAL lines installed.
    pub applied: usize,
    /// Ingest deltas among them, applied through snapshot replay.
    pub ingest_batches: usize,
    /// QA answer records among them, restored into the agent session.
    pub answers: usize,
    /// The replica journal's next seq after the apply.
    pub next_seq: u64,
    /// The replica journal's chain head after the apply — equal to the
    /// leader's at the same seq iff the histories are byte-identical.
    pub chain_head: String,
}

/// Pipeline state retained after `analyze` so later [`AllHands::ingest`]
/// batches extend the run instead of recomputing it.
struct IngestState {
    /// The pipeline LLM, kept alive so its embedder and memo caches keep
    /// amortizing across batches.
    llm: SimLlm,
    labeled_sample: Vec<LabeledExample>,
    labels: Vec<String>,
    /// The fitted demonstration pool. `None` on resumed runs whose stage 1
    /// replayed (never fit one); refit lazily at the first live batch.
    demos: Option<Arc<DemoIndex>>,
    topic_list: Vec<String>,
    /// Cached row embeddings aligned with `texts`, backfilled on demand;
    /// feeds both topic-centroid assignment and the document index.
    row_embeds: Vec<Embedding>,
    /// Incremental document index over all rows, built at first use.
    doc_index: Option<IvfIndex>,
    /// Row ids below the assignment threshold, awaiting the next flush.
    pending: Vec<usize>,
    texts: Vec<String>,
    row_labels: Vec<String>,
    sentiments: Vec<f64>,
    doc_topics: Vec<Vec<String>>,
    /// Batches ingested so far — the ordinal half of each journal key.
    batches: usize,
}

impl IngestState {
    /// Retained state over already-structured rows. Sentiments are
    /// recomputed from the texts; the demonstration pool, row-embedding
    /// cache, document index and pending pool start empty.
    fn new(
        llm: SimLlm,
        labeled_sample: &[LabeledExample],
        texts: Vec<String>,
        row_labels: Vec<String>,
        doc_topics: Vec<Vec<String>>,
        topic_list: Vec<String>,
    ) -> Self {
        IngestState {
            llm,
            labeled_sample: labeled_sample.to_vec(),
            labels: distinct_labels(labeled_sample),
            demos: None,
            topic_list,
            row_embeds: Vec::new(),
            doc_index: None,
            pending: Vec::new(),
            sentiments: texts.iter().map(|t| estimate_sentiment(t)).collect(),
            texts,
            row_labels,
            doc_topics,
            batches: 0,
        }
    }

    /// The structured feedback frame: one row per text. The one-shot
    /// pipeline, checkpoint restore and every applied batch build it here,
    /// so all produce byte-identical tables for the same rows.
    fn frame(&self) -> Result<DataFrame, AllHandsError> {
        let texts = &self.texts;
        let frame = DataFrame::new(vec![
            Column::from_i64s("id", &(0..texts.len() as i64).collect::<Vec<_>>()),
            Column::from_strings("text", texts.to_vec()),
            Column::from_strings("label", self.row_labels.to_vec()),
            Column::from_f64s("sentiment", &self.sentiments),
            Column::from_str_lists("topics", self.doc_topics.to_vec()),
            Column::from_i64s(
                "text_len",
                &texts.iter().map(|t| t.chars().count() as i64).collect::<Vec<_>>(),
            ),
        ])?;
        Ok(frame)
    }
}

/// Automatic checkpoint cadence and retention, driven from
/// [`AllHands::ingest`] on journaled runs. Disabled by default so
/// un-checkpointed runs behave exactly as before (same journal contents,
/// same crash-point schedule).
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Write a checkpoint — and compact the journal behind it — after
    /// every N ingest batches. `0` disables automatic checkpointing.
    pub every_n_batches: usize,
    /// Checkpoints each compaction retains (clamped to at least 1). The
    /// journal keeps delta records back to the *oldest* retained
    /// checkpoint, so a later-corrupted newest checkpoint still leaves a
    /// recoverable older one.
    pub keep_last_k: usize,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        Self { every_n_batches: 0, keep_last_k: 2 }
    }
}

/// Facade configuration.
#[derive(Debug, Clone, Default)]
pub struct AllHandsConfig {
    /// Classification stage settings.
    pub icl: IclConfig,
    /// Topic modeling stage settings.
    pub topics: TopicModelingConfig,
    /// QA agent settings.
    pub agent: AgentConfig,
    /// Incremental ingestion settings.
    pub ingest: IngestConfig,
    /// Checkpoint + compaction retention (off by default).
    pub checkpoint: CheckpointPolicy,
    /// Resilience settings shared by all three stages (fault injection off
    /// by default — the default pipeline behaves exactly as if no
    /// resilience layer existed).
    pub resilience: ResilienceConfig,
}

/// The AllHands framework: one LLM tier driving all three stages.
pub struct AllHands {
    tier: ModelTier,
    config: AllHandsConfig,
    agent: QaAgent,
    /// The run-wide resilience context, shared across stages.
    resilience: Arc<ResilienceCtx>,
    /// Write-ahead journal when built with a [`JournalMode`]; `None` for
    /// unjournaled runs.
    journal: Option<Journal>,
    /// Questions asked so far — the ordinal half of each QA journal key.
    asked: usize,
    /// Answer records accumulated on journaled runs, in ask order — the QA
    /// history a checkpoint carries so a recovered agent keeps its session.
    answers: Vec<AnswerRecord>,
    /// The run-wide observability recorder (disabled unless requested).
    recorder: Recorder,
    /// The `qa` span, opened lazily at the first [`ask`](AllHands::ask) and
    /// held open so every `question[i]` nests under one `qa` root.
    qa_span: Option<SpanGuard>,
    /// Retained pipeline state enabling [`ingest`](AllHands::ingest);
    /// `None` when built from a pre-structured frame.
    ingest: Option<IngestState>,
    /// The `ingest` span, opened lazily at the first ingest batch and held
    /// open so every `batch[i]` nests under one `ingest` root. Closed when
    /// QA starts (and vice versa), so interleaved ask/ingest sequences
    /// produce sibling roots instead of nesting one family in the other.
    ingest_span: Option<SpanGuard>,
    /// Read-replica mode (see [`AllHandsBuilder::replica`]): `ask` serves
    /// without journaling, `ingest`/`retract` are refused, and state
    /// advances only through [`apply_tail`](AllHands::apply_tail).
    replica: bool,
    /// Replica-served reads, counted separately from `asked` (which stays
    /// the replicated QA ordinal so checkpoints converge with the leader's).
    reads_served: usize,
}

/// One pipeline run's inputs, shared by the fresh, resumed and recovered
/// build paths.
struct Run<'a> {
    tier: ModelTier,
    texts: &'a [String],
    labeled_sample: &'a [LabeledExample],
    predefined_topics: &'a [String],
    config: AllHandsConfig,
    recorder: Recorder,
}

impl Run<'_> {
    /// The run fingerprint the journal header and checkpoints carry.
    fn fingerprint(&self) -> String {
        let policy = policy_digest(&self.config);
        run_fingerprint(self.tier, self.texts, self.labeled_sample, self.predefined_topics, &policy)
    }

    /// The one-shot pipeline: classify, model topics, structure the frame.
    /// On a journaled run each stage boundary is snapshotted, and stages an
    /// earlier run committed replay instead of recomputing.
    fn pipeline(self, mut journal: Option<Journal>) -> Result<(AllHands, DataFrame), AllHandsError> {
        let Run { tier, texts, labeled_sample, predefined_topics, config, recorder } = self;
        recorder.set_meta("tier", tier.name());
        recorder.set_meta("corpus_docs", &texts.len().to_string());
        recorder.set_meta("labeled_examples", &labeled_sample.len().to_string());
        recorder.set_meta("journaled", if journal.is_some() { "true" } else { "false" });
        let pipeline_span = recorder.span("pipeline");
        let mut llm = SimLlm::new(ModelSpec::for_tier(tier));
        llm.set_recorder(recorder.clone());
        let resilience = resilience_ctx(&config, &recorder);
        if let Some(j) = &mut journal {
            // Checkpoint/compaction seams participate in the same seeded
            // crash schedule as the stage boundaries.
            j.set_crash_hook(resilience.crash_hook());
        }

        // Stage 1: classification.
        let labels = distinct_labels(labeled_sample);
        let replayed = match &journal {
            Some(j) => j.lookup::<Stage1Snapshot>("stage1", "labels").map_err(jerr)?,
            None => None,
        };
        // The fitted demonstration pool, kept for incremental ingestion.
        // Stays `None` on the replay path: a resumed run only refits it if
        // a live ingest batch actually needs it.
        let mut demo_index: Option<Arc<DemoIndex>> = None;
        let predicted: Vec<String> = match replayed {
            Some(snap) => {
                recorder.incr("pipeline.stage_replays");
                resilience.restore(&snap.resilience);
                snap.predicted
            }
            None => {
                resilience.crash_point("stage1:start");
                let mut demos = DemoIndex::fit(&llm, labeled_sample, &labels, &config.icl);
                demos.set_recorder(recorder.clone());
                let demos = Arc::new(demos);
                demo_index = Some(Arc::clone(&demos));
                let classifier = IclClassifier::from_demos(&llm, demos, config.icl.clone())
                    .with_resilience(Arc::clone(&resilience));
                // Batch classification: per-text work runs data-parallel with
                // output byte-identical to classifying each text in order (see
                // `IclClassifier::classify_batch` for the determinism contract).
                let predicted: Vec<String> = classifier.classify_batch(texts);
                if let Some(j) = &mut journal {
                    let snap = Stage1Snapshot {
                        predicted: predicted.clone(),
                        resilience: resilience.snapshot(),
                    };
                    j.append("stage1", "labels", &snap).map_err(jerr)?;
                }
                resilience.crash_point("stage1:committed");
                predicted
            }
        };

        // Stage 2: abstractive topic modeling (+HITLR).
        let replayed = match &journal {
            Some(j) => j.lookup::<Stage2Snapshot>("stage2", "topics").map_err(jerr)?,
            None => None,
        };
        let result = match replayed {
            Some(snap) => {
                recorder.incr("pipeline.stage_replays");
                resilience.restore(&snap.resilience);
                snap.result
            }
            None => {
                resilience.crash_point("stage2:start");
                let modeler = AbstractiveTopicModeler::new(&llm, config.topics.clone())
                    .with_resilience(Arc::clone(&resilience));
                let result = modeler.run(texts, predefined_topics);
                if let Some(j) = &mut journal {
                    let snap =
                        Stage2Snapshot { result: result.clone(), resilience: resilience.snapshot() };
                    j.append("stage2", "topics", &snap).map_err(jerr)?;
                }
                resilience.crash_point("stage2:committed");
                result
            }
        };

        let mut ingest = IngestState::new(
            llm,
            labeled_sample,
            texts.to_vec(),
            predicted,
            result.doc_topics,
            result.topic_list,
        );
        ingest.demos = demo_index;
        let frame = ingest.frame()?;
        drop(pipeline_span);
        let ah =
            AllHands::assemble(tier, config, frame.clone(), resilience, journal, recorder, Some(ingest));
        Ok((ah, frame))
    }

    /// Point-in-time recovery: restore the nearest checkpoint at or below
    /// the target batch, then replay the surviving delta records forward.
    /// Falls back to the ordinary pipeline path (which itself replays any
    /// surviving stage snapshots) when no usable checkpoint exists — a
    /// fully corrupt checkpoint set degrades, it never errors.
    fn recover(
        self,
        journal: Journal,
        point: RecoverPoint,
        replica: bool,
    ) -> Result<(AllHands, DataFrame), AllHandsError> {
        // The surviving deltas, decoded in WAL order. A leader replays only
        // ingest deltas here — its answers replay when the caller re-asks —
        // but a replica never re-asks, so it takes its replicated answers
        // too. Undecodable deltas are skipped, not fatal — recovery works
        // from what is durable.
        let mut log: Vec<(Delta, ResilienceSnapshot)> = Vec::new();
        for e in journal.entries() {
            if e.stage != "ingest" && !(replica && e.stage == "qa") {
                continue;
            }
            match decode_entry(e) {
                Ok(delta) => log.extend(delta),
                Err(_) => self.recorder.incr("recover.undecodable_deltas"),
            }
        }
        let batch_ord = |d: &Delta| match d {
            Delta::Batch(ord, _) => Some(*ord),
            Delta::Answer(..) => None,
        };
        // Decodable checkpoints stamped with this run's fingerprint, in
        // marker order. A checkpoint that no longer decodes (schema drift,
        // partial damage below the hash's radar) is skipped the same way a
        // hash-corrupt one was at open. Decoding is lazy and newest-first:
        // checkpoint payloads carry the full session state, and only the one
        // actually restored should pay the decode — older siblings exist
        // purely as fallbacks.
        let fp = self.fingerprint();
        let mut candidates: Vec<&allhands_journal::CheckpointRecord> = Vec::new();
        for c in journal.checkpoints() {
            if c.fingerprint != fp {
                self.recorder.incr("recover.foreign_checkpoints");
                continue;
            }
            candidates.push(c);
        }
        let rec = &self.recorder;
        let newest_decodable = |upto: usize| {
            candidates.iter().rev().filter(|c| c.marker as usize <= upto).find_map(|c| {
                match allhands_journal::decode::<CheckpointState>(&c.payload) {
                    Ok(state) => Some((c.marker, state)),
                    Err(_) => {
                        rec.incr("recover.undecodable_checkpoints");
                        None
                    }
                }
            })
        };
        // Newest decodable checkpoint (walking back over drifted ones) —
        // its marker bounds what checkpoints alone can recover.
        let newest = newest_decodable(usize::MAX);
        let available = std::cmp::max(
            log.iter().filter_map(|(d, _)| batch_ord(d)).max().map_or(0, |o| o + 1),
            newest.as_ref().map_or(0, |&(m, _)| m as usize),
        );
        let target = match point {
            RecoverPoint::Latest => available,
            RecoverPoint::Batch(k) if k >= available => {
                return Err(AllHandsError::Pipeline(format!(
                    "recover: batch {k} is beyond this journal's coverage \
                     ({available} batch(es) recoverable)"
                )));
            }
            RecoverPoint::Batch(k) => k + 1,
        };
        // The newest decodable checkpoint serves unless the requested point
        // predates it; then walk further back, decoding only what the walk
        // actually visits.
        let best = match newest {
            Some((m, _)) if m as usize > target => newest_decodable(target),
            newest => newest,
        };
        let (mut ah, mut frame) = match best {
            Some((marker, state)) => self.restore(journal, state, marker)?,
            None => self.pipeline(Some(journal))?,
        };
        // Forward replay through the session reducer. A leader takes each
        // batch's delta by ordinal (a later record for the same ordinal —
        // possible after an overlapping resume — wins). A replica walks its
        // WAL in order, the order `apply_tail` applied it in. Either way,
        // deltas the restored state already covers are skipped, and replay
        // stops at the target or at the first missing batch.
        if !replica {
            let by_ord: std::collections::BTreeMap<usize, (Delta, ResilienceSnapshot)> =
                log.into_iter().filter_map(|e| Some((batch_ord(&e.0)?, e))).collect();
            log = by_ord.into_values().collect();
        }
        for (delta, resilience) in log {
            let batches = ah.ingested_batches();
            match &delta {
                Delta::Batch(ord, _) if *ord < batches => continue,
                Delta::Batch(ord, _) if *ord > batches || *ord >= target => break,
                Delta::Answer(ord, _) if *ord < ah.asked => continue,
                _ => {}
            }
            ah.resilience.restore(&resilience);
            if let Applied::Batch(report) = ah.apply(delta, true)? {
                ah.recorder.incr("recover.delta_replays");
                frame = report.frame;
            }
        }
        let applied = ah.ingested_batches();
        if applied < target {
            if let RecoverPoint::Batch(_) = point {
                return Err(AllHandsError::Pipeline(format!(
                    "recover: no surviving delta record for batch {applied}; \
                     nearest recoverable state holds {applied} batch(es)"
                )));
            }
            ah.resilience.note_degradation(
                "recover",
                format!(
                    "delta record for batch {applied} missing; \
                     recovered {applied} of {target} batch(es)"
                ),
            );
        }
        ah.recorder.set_meta("recovered_batches", &applied.to_string());
        Ok((ah, frame))
    }

    /// Rebuild a live session from one decoded checkpoint. Everything the
    /// checkpoint omits — sentiments, row embeddings, the demonstration
    /// pool, the document index's vectors — is recomputed deterministically
    /// from the restored texts, so the rebuilt session is byte-identical to
    /// the one that wrote the checkpoint.
    fn restore(
        self,
        mut journal: Journal,
        state: CheckpointState,
        marker: u64,
    ) -> Result<(AllHands, DataFrame), AllHandsError> {
        let Run { tier, labeled_sample, config, recorder, .. } = self;
        if state.row_labels.len() != state.texts.len()
            || state.doc_topics.len() != state.texts.len()
        {
            return Err(AllHandsError::Pipeline(format!(
                "recover: checkpoint {marker} is internally inconsistent \
                 ({} text(s), {} label(s), {} topic row(s))",
                state.texts.len(),
                state.row_labels.len(),
                state.doc_topics.len()
            )));
        }
        recorder.set_meta("tier", tier.name());
        recorder.set_meta("journaled", "true");
        recorder.set_meta("recovered_from_checkpoint", &marker.to_string());
        let _span = recorder.span("recover");
        let mut llm = SimLlm::new(ModelSpec::for_tier(tier));
        llm.set_recorder(recorder.clone());
        let resilience = resilience_ctx(&config, &recorder);
        resilience.restore(&state.resilience);
        journal.set_crash_hook(resilience.crash_hook());
        let mut ingest = IngestState::new(
            llm,
            labeled_sample,
            state.texts,
            state.row_labels,
            state.doc_topics,
            state.topic_list,
        );
        if let Some(layout) = state.doc_index {
            restore_doc_index(&mut ingest, layout, &recorder, marker)?;
        }
        ingest.pending = state.pending.iter().map(|&r| r as usize).collect();
        ingest.batches = state.batches as usize;
        let frame = ingest.frame()?;
        let mut ah = AllHands::assemble(
            tier,
            config,
            frame.clone(),
            resilience,
            Some(journal),
            recorder,
            Some(ingest),
        );
        // The answer history replays through the reducer, re-establishing
        // the agent's session bindings and the question ordinal.
        for (idx, record) in state.answers.into_iter().enumerate() {
            ah.apply(Delta::Answer(idx, record), true)?;
        }
        Ok((ah, frame))
    }
}

impl AllHands {
    /// Start building a run: pick a tier, then chain
    /// [`config`](AllHandsBuilder::config), [`journal`](AllHandsBuilder::journal),
    /// and [`recorder`](AllHandsBuilder::recorder) before calling
    /// [`analyze`](AllHandsBuilder::analyze) (full pipeline) or
    /// [`from_frame`](AllHandsBuilder::from_frame) (pre-structured data).
    ///
    /// The stages share one resilience context built from
    /// [`AllHandsConfig::resilience`]: under fault injection, classification
    /// falls back to a lexical prior, topic modeling skips refinement, and
    /// the QA agent answers partially — the pipeline degrades rather than
    /// failing, and every degradation is recorded on the context
    /// ([`AllHands::resilience`]). Errors that cannot be degraded around
    /// (e.g. inconsistent pipeline columns) are returned, never panicked.
    ///
    /// With [`JournalMode`] attached, each stage boundary is snapshotted to
    /// a write-ahead journal; a run that crashed part-way replays committed
    /// stages byte-identically on the next `Continue` run with the same
    /// inputs (the journal header pins a content fingerprint — resuming
    /// against different inputs is an error, never silent reuse). Later
    /// [`ask`](AllHands::ask) calls are journaled too.
    pub fn builder(tier: ModelTier) -> AllHandsBuilder {
        AllHandsBuilder {
            tier,
            config: AllHandsConfig::default(),
            options: AnalyzeOptions::default(),
        }
    }

    /// Build directly over an already-structured feedback frame (columns
    /// like `text`, `sentiment`, `topics`, …). Use
    /// [`AllHands::builder`]`.analyze(..)` to run the full structuralization
    /// pipeline first.
    pub fn from_frame(tier: ModelTier, frame: DataFrame, config: AllHandsConfig) -> Self {
        Self::builder(tier).config(config).from_frame(frame)
    }

    /// The one session constructor: the QA agent over `frame`, sharing the
    /// run-wide resilience context; question ordinals, answer history and
    /// spans start empty.
    fn assemble(
        tier: ModelTier,
        config: AllHandsConfig,
        frame: DataFrame,
        resilience: Arc<ResilienceCtx>,
        journal: Option<Journal>,
        recorder: Recorder,
        ingest: Option<IngestState>,
    ) -> Self {
        let mut agent =
            QaAgent::new(SimLlm::new(ModelSpec::for_tier(tier)), frame, config.agent.clone());
        agent.set_resilience(Arc::clone(&resilience));
        AllHands {
            tier,
            config,
            agent,
            resilience,
            journal,
            asked: 0,
            answers: Vec::new(),
            recorder,
            qa_span: None,
            ingest,
            ingest_span: None,
            replica: false,
            reads_served: 0,
        }
    }

    /// The LLM tier in use.
    pub fn tier(&self) -> ModelTier {
        self.tier
    }

    /// Ingest batches applied so far (live, replayed, or recovered); 0 on
    /// [`from_frame`](AllHands::from_frame) sessions.
    pub fn ingested_batches(&self) -> usize {
        self.ingest.as_ref().map_or(0, |i| i.batches)
    }

    /// The run-wide resilience context: degradation notes, breaker states,
    /// retry statistics.
    pub fn resilience(&self) -> &Arc<ResilienceCtx> {
        &self.resilience
    }

    /// The configuration.
    pub fn config(&self) -> &AllHandsConfig {
        &self.config
    }

    /// Ask a natural-language question about the feedback.
    ///
    /// On a journaled run (built with a [`JournalMode`]) each committed
    /// answer is snapshotted; a resumed run re-asking the same question
    /// sequence replays recorded answers (restoring the agent's session
    /// bindings and history) instead of recomputing them.
    ///
    /// Errors are storage-shaped, never answer-shaped: an answer that could
    /// not be *computed* still comes back `Ok` with the failure inside
    /// [`Response::error`] (the agent degrades, it does not throw), while
    /// the journal tripping into read-only mode **during this ask's
    /// append** returns [`AllHandsError::ReadOnly`] — the answer was served
    /// from memory but was never made durable, mirroring
    /// [`ingest`](Self::ingest)'s mid-batch convention. A session *already*
    /// in read-only mode keeps serving `Ok` answers (bounded-staleness
    /// reads survive storage degradation; the lost durability is noted
    /// once). On a replica session the question is answered from the
    /// replicated state and nothing is journaled.
    pub fn ask(&mut self, question: &str) -> Result<Response, AllHandsError> {
        if self.qa_span.is_none() {
            self.ingest_span = None;
            self.qa_span = Some(self.recorder.span("qa"));
        }
        if self.replica {
            // Replica sessions never journal their own answers — the
            // leader's QA entries arrive via `apply_tail`, and a local
            // append would fork the replicated hash chain. `asked` stays
            // the replicated QA ordinal; served reads count separately.
            let n = self.reads_served;
            self.reads_served += 1;
            let _question_span = self.recorder.span(&format!("read[{n}]"));
            self.recorder.incr("qa.replica_reads");
            return Ok(self.agent.ask(question));
        }
        let idx = self.asked;
        let _question_span = self.recorder.span(&format!("question[{idx}]"));
        let Some(journal) = &mut self.journal else {
            let response = self.agent.ask(question);
            let record = self.agent.record_answer(question, &response);
            self.apply(Delta::Answer(idx, record), false)?;
            return Ok(response);
        };
        let key =
            format!("q{:03}:{}", idx, allhands_journal::fingerprint([question.as_bytes()]));
        match journal.lookup::<QaSnapshot>("qa", &key) {
            Ok(Some(snap)) => {
                self.resilience.restore(&snap.resilience);
                let Applied::Answer(Some(response)) =
                    self.apply(Delta::Answer(idx, snap.record), true)?
                else {
                    unreachable!("a replayed answer re-renders its response")
                };
                return Ok(response);
            }
            Ok(None) => {}
            Err(e) => {
                // A corrupt QA snapshot is not worth failing the question
                // over: recompute the answer and note the degradation.
                self.resilience
                    .note_degradation("qa-agent", format!("journal replay failed ({e}); recomputing"));
            }
        }
        let read_only = journal.read_only_reason().map(str::to_string);
        match &read_only {
            // Already read-only: keep answering (bounded-staleness reads
            // survive storage degradation), skip the doomed append, and
            // note the lost durability once rather than on every question.
            Some(reason) => self.resilience.note_degradation_once(
                "qa-agent",
                &format!("journal is read-only ({reason}); answers no longer crash-safe"),
            ),
            None => self.resilience.crash_point(&format!("qa:{key}:start")),
        }
        let response = self.agent.ask(question);
        let snap = QaSnapshot {
            record: self.agent.record_answer(question, &response),
            resilience: self.resilience.snapshot(),
        };
        let mut outcome = Ok(response);
        if read_only.is_none() {
            match journal.append("qa", &key, &snap) {
                Ok(()) => self.resilience.crash_point(&format!("qa:{key}:committed")),
                Err(JournalError::ReadOnly(m)) => {
                    // The storage layer tripped read-only during this
                    // append. The answer stays applied in memory, but the
                    // caller gets the typed error: this answer was never
                    // made durable.
                    self.resilience.note_degradation(
                        "qa-agent",
                        format!(
                            "journal tripped read-only ({m}); answer served from memory, not crash-safe"
                        ),
                    );
                    outcome = Err(AllHandsError::ReadOnly(m));
                }
                Err(e) => {
                    // The answer is still good — it is just not crash-safe.
                    self.resilience.note_degradation(
                        "qa-agent",
                        format!("journal append failed ({e}); answer not crash-safe"),
                    );
                }
            }
        }
        self.apply(Delta::Answer(idx, snap.record), false)?;
        outcome
    }

    /// Structured summary of everything that went sideways this run:
    /// quarantined (poison-pill) documents and degradation notes. The
    /// report's `Display` renders the familiar human-readable text (a
    /// single "clean" line when nothing went wrong), so existing
    /// `.to_string()` call sites keep their output byte-identical.
    pub fn quarantine_report(&self) -> QuarantineReport {
        QuarantineReport {
            quarantined: self.resilience.quarantined(),
            degradations: self.resilience.degradations(),
        }
    }

    /// The observability recorder for this run (disabled unless the run was
    /// built with [`RecorderMode::Enabled`] or a custom recorder).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Snapshot the run's observability state — counters, histograms, span
    /// tree, meta — as a [`RunReport`]. Spans still open (e.g. the `qa`
    /// root) appear with `duration_ms: null`.
    pub fn run_report(&self) -> RunReport {
        self.recorder.report()
    }

    /// The write-ahead journal backing this run, if journaled.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Export a follower-bootstrap bundle covering everything this
    /// session's journal holds: the newest checkpoint plus the WAL suffix
    /// past it, hash-sealed (see [`Journal::export_bootstrap`]). Feed it to
    /// `AllHands::builder(..).journal(..).bootstrap(bundle)` on an empty
    /// directory to bring up a byte-identical follower. Errors on an
    /// unjournaled session.
    pub fn export_bootstrap(&self) -> Result<BootstrapBundle, AllHandsError> {
        let Some(j) = self.journal.as_ref() else {
            return Err(AllHandsError::Pipeline(
                "export_bootstrap requires a journaled session (builder().journal(..))"
                    .to_string(),
            ));
        };
        j.export_bootstrap(j.next_seq()).map_err(jerr)
    }

    /// Ingest one batch of new feedback texts into the analyzed state.
    ///
    /// Stage 1 classifies only the new documents, re-using the
    /// demonstration pool fitted during
    /// [`analyze`](AllHandsBuilder::analyze). Stage 2 assigns each document
    /// to an existing topic by embedding similarity; documents below
    /// [`IngestConfig::assign_threshold`] are provisionally `"others"` and
    /// join a pending pool that triggers one bounded re-summarization round
    /// when it reaches [`IngestConfig::pending_threshold`] — rewriting
    /// those rows' topics and possibly coining new ones. The incremental
    /// document index absorbs the batch, auto-retraining once its
    /// staleness ratio passes [`IngestConfig::ivf_staleness`].
    ///
    /// On a journaled run each batch boundary writes a delta record; a
    /// crashed stream resumed with the same batch sequence replays
    /// committed batches byte-identically. The QA agent's frame is rebound
    /// after every batch, so later [`ask`](AllHands::ask) calls see all
    /// ingested rows.
    ///
    /// Errors on an [`AllHands::from_frame`] session: there is no pipeline
    /// state to ingest into.
    pub fn ingest(&mut self, batch: &[String]) -> Result<IngestReport, AllHandsError> {
        // Replicas take writes only from the leader's replicated journal
        // lines (`apply_tail`); a locally-ingested batch would fork the
        // replicated hash chain.
        if self.replica {
            return Err(AllHandsError::ReadOnly(
                "replica session: ingest goes to the leader; this session serves reads and applies replicated deltas"
                    .to_string(),
            ));
        }
        // A read-only (storage-degraded) journal refuses new state up
        // front: nothing is classified, nothing is applied, and the caller
        // gets the typed error. Queries (`ask`, `search_similar`) keep
        // serving the state already in memory.
        if let Some(reason) =
            self.journal.as_ref().and_then(|j| j.read_only_reason().map(str::to_string))
        {
            self.resilience.note_degradation_once(
                "ingest",
                &format!("journal is read-only (degraded): {reason}; batch refused"),
            );
            return Err(AllHandsError::ReadOnly(reason));
        }
        let Some(batch_idx) = self.ingest.as_ref().map(|ing| ing.batches) else {
            return Err(AllHandsError::Pipeline(
                "ingest requires a pipeline-built session (builder().analyze(..)); \
                 from_frame sessions carry no ingestion state"
                    .to_string(),
            ));
        };
        if self.ingest_span.is_none() {
            self.qa_span = None;
            self.ingest_span = Some(self.recorder.span("ingest"));
        }
        let rec = self.recorder.clone();
        let _batch_span = rec.span(&format!("batch[{batch_idx}]"));
        rec.incr("ingest.batches");
        rec.add("ingest.docs", batch.len() as u64);
        let key = format!(
            "b{batch_idx:05}:{}",
            allhands_journal::fingerprint(batch.iter().map(|t| t.as_bytes()))
        );

        // Replay: a committed delta record restores the batch without
        // re-running classification or re-summarization.
        let replayed = match &self.journal {
            Some(j) => j.lookup::<IngestSnapshot>("ingest", &key).map_err(jerr)?,
            None => None,
        };
        if let Some(snap) = replayed {
            rec.incr("ingest.replays");
            let _replay_span = rec.span("replay");
            self.resilience.restore(&snap.resilience);
            let Applied::Batch(report) = self.apply(Delta::Batch(batch_idx, snap), true)? else {
                unreachable!("a batch delta applies as a batch")
            };
            self.maybe_checkpoint(batch_idx);
            return Ok(report);
        }
        if self.journal.is_some() {
            self.resilience.crash_point(&format!("ingest:{key}:start"));
        }
        let ing = self.ingest.as_mut().expect("ingestion state checked above");
        let snap = decide_batch(ing, batch, &self.config, &self.resilience, &rec);

        // Journal delta: the batch boundary is the crash-consistency point.
        let mut readonly_trip: Option<String> = None;
        if let Some(j) = &mut self.journal {
            match j.append("ingest", &key, &snap) {
                Ok(()) => self.resilience.crash_point(&format!("ingest:{key}:committed")),
                Err(JournalError::ReadOnly(m)) => {
                    // The storage layer tripped read-only mid-batch. The
                    // batch stays applied in memory (queries keep serving
                    // it) but the caller gets the typed error: the batch
                    // was never made durable and re-feeding it after the
                    // storage is healthy again is the caller's move.
                    self.resilience.note_degradation(
                        "ingest",
                        format!(
                            "journal tripped read-only ({m}); batch applied in memory only, not crash-safe"
                        ),
                    );
                    readonly_trip = Some(m);
                }
                Err(e) => {
                    // The batch is still applied — it is just not crash-safe.
                    self.resilience.note_degradation(
                        "ingest",
                        format!("journal append failed ({e}); batch not crash-safe"),
                    );
                }
            }
        }

        let Applied::Batch(report) = self.apply(Delta::Batch(batch_idx, snap), false)? else {
            unreachable!("a batch delta applies as a batch")
        };
        rec.add("ingest.indexed", report.new_rows as u64);
        if let Some(m) = readonly_trip {
            return Err(AllHandsError::ReadOnly(m));
        }
        self.maybe_checkpoint(batch_idx);
        Ok(report)
    }

    /// The session reducer: the only place session state changes after
    /// construction. Live ingest and ask, journal lookups on resume,
    /// point-in-time recovery, checkpoint restore and replication all
    /// apply their deltas here, so every path lands on the same state.
    ///
    /// A batch appends its rows, labels, sentiments and topics, applies the
    /// flush's topic rewrites, installs the topic list and pending pool,
    /// feeds the document index the same insert sequence the live run
    /// performed (so auto-retrains fire at the same points and the index
    /// structure matches), rebinds the agent's frame and advances the batch
    /// ordinal. An answer joins the history a checkpoint carries (on
    /// journaled sessions) and advances the question ordinal; a `replayed`
    /// one also re-executes its recorded code in the agent, since only a
    /// live answer already ran there.
    ///
    /// Callers that replay restore the delta's recorded resilience state
    /// first; the live paths must not, as their context already holds the
    /// crash points and notes the delta recorded. Checkpointing stays with
    /// the callers: recovery never writes.
    fn apply(&mut self, delta: Delta, replayed: bool) -> Result<Applied, AllHandsError> {
        let (batch, snap) = match delta {
            Delta::Answer(idx, record) => {
                let response = replayed.then(|| self.agent.restore_answer(record.clone()));
                if self.journal.is_some() {
                    self.answers.push(record);
                }
                self.asked = self.asked.max(idx + 1);
                return Ok(Applied::Answer(response));
            }
            Delta::Batch(batch, snap) => (batch, snap),
        };
        let rec = &self.recorder;
        let cfg = &self.config.ingest;
        let Some(ing) = self.ingest.as_mut() else {
            return Err(AllHandsError::Pipeline(
                "journal: no ingestion state to apply a batch delta into".to_string(),
            ));
        };
        if batch != ing.batches {
            return Err(AllHandsError::Pipeline(format!(
                "journal: batch {batch} delta applied out of order (expected batch {})",
                ing.batches
            )));
        }
        let new_rows = snap.texts.len();
        let start_row = ing.texts.len();
        if snap.predicted.len() != new_rows || snap.topics.len() != new_rows {
            return Err(AllHandsError::Pipeline(format!(
                "journal: ingest snapshot for batch {batch} holds {} label(s) / {} topic row(s) \
                 for a {new_rows}-document batch",
                snap.predicted.len(),
                snap.topics.len(),
            )));
        }
        if let Some(rw) = snap.rewrites.iter().find(|rw| rw.row as usize >= start_row + new_rows) {
            return Err(AllHandsError::Pipeline(format!(
                "journal: ingest snapshot for batch {batch} rewrites nonexistent row {}",
                rw.row
            )));
        }
        ing.sentiments.extend(snap.texts.iter().map(|t| estimate_sentiment(t)));
        ing.texts.extend(snap.texts);
        ing.row_labels.extend(snap.predicted);
        ing.doc_topics.extend(snap.topics);
        for rw in snap.rewrites {
            ing.doc_topics[rw.row as usize] = rw.topics;
        }
        ing.topic_list = snap.topic_list;
        ing.pending = snap.pending.iter().map(|&r| r as usize).collect();
        backfill_row_embeds(ing, rec, &[]);
        let retrained = {
            let _index_span = rec.span("index");
            let batch_embeds = ing.row_embeds[start_row..start_row + new_rows].to_vec();
            let doc_index = ensure_doc_index(ing, rec, cfg, start_row);
            let before = doc_index.train_count();
            for (i, emb) in batch_embeds.into_iter().enumerate() {
                doc_index.insert(Record::new((start_row + i) as u64, emb));
            }
            doc_index.train_count() > before
        };
        let frame = ing.frame()?;
        ing.batches = batch + 1;
        self.agent.set_frame(frame.clone());
        Ok(Applied::Batch(IngestReport {
            batch,
            new_rows,
            assigned: snap.assigned as usize,
            routed_pending: snap.routed as usize,
            flushed: snap.flushed as usize,
            coined: snap.coined,
            retrained,
            replayed,
            frame,
        }))
    }

    /// Write a checkpoint (and compact the journal behind it) when the
    /// retention policy marks this batch ordinal as a boundary. Failures
    /// degrade — the batch stays applied, it is just not yet
    /// checkpoint-covered — but injected crash panics from the seeded
    /// seams propagate, exactly like the stage-boundary crash points.
    fn maybe_checkpoint(&mut self, batch_idx: usize) {
        let policy = self.config.checkpoint.clone();
        if policy.every_n_batches == 0 || (batch_idx + 1) % policy.every_n_batches != 0 {
            return;
        }
        if self.journal.is_none() {
            return;
        }
        let Some(state) = self.checkpoint_state() else { return };
        let _span = self.recorder.span("checkpoint");
        let marker = (batch_idx + 1) as u64;
        let keep = policy.keep_last_k.max(1);
        let j = self.journal.as_mut().expect("journal presence checked above");
        if let Err(e) = j.checkpoint(marker, &state).and_then(|()| j.compact(keep).map(|_| ())) {
            self.resilience.note_degradation(
                "checkpoint",
                format!("checkpoint at batch {batch_idx} failed ({e}); journal left uncompacted"),
            );
        }
    }

    /// The checkpoint payload for the current session state (`None` on a
    /// session without retained pipeline state).
    fn checkpoint_state(&self) -> Option<CheckpointState> {
        let ing = self.ingest.as_ref()?;
        Some(CheckpointState {
            texts: ing.texts.clone(),
            row_labels: ing.row_labels.clone(),
            doc_topics: ing.doc_topics.clone(),
            topic_list: ing.topic_list.clone(),
            pending: ing.pending.iter().map(|&r| r as u64).collect(),
            batches: ing.batches as u64,
            asked: self.asked as u64,
            answers: self.answers.clone(),
            resilience: self.resilience.snapshot(),
            doc_index: ing.doc_index.as_ref().map(IvfIndex::to_state),
        })
    }

    /// Top-`k` rows most similar to `text` in the incremental document
    /// index, as `(row id, cosine score)` pairs, best first. Builds the
    /// index on first use. Requires a pipeline-built session.
    pub fn search_similar(
        &mut self,
        text: &str,
        k: usize,
    ) -> Result<Vec<(u64, f32)>, AllHandsError> {
        let ing = self.ingest.as_ref().ok_or_else(|| pipeline_only("search_similar"))?;
        let query = ing.llm.embedder().embed(text);
        let index = self.doc_index("search_similar")?;
        Ok(index.search(&query, k).into_iter().map(|h| (h.id, h.score)).collect())
    }

    /// Force-build the incremental document index now (it is otherwise
    /// built lazily at the first [`search_similar`](Self::search_similar)
    /// or ingest batch), so later
    /// [`search_similar_prepared`](Self::search_similar_prepared) calls can
    /// serve with `&self` only — e.g. many reader threads sharing one
    /// session behind an `RwLock` read guard. Deterministic: seeding from
    /// the same row state builds the same index whether it happens here or
    /// lazily.
    pub fn prepare_search(&mut self) -> Result<(), AllHandsError> {
        self.doc_index("prepare_search").map(|_| ())
    }

    /// The incremental document index over every row, built on first use.
    fn doc_index(&mut self, op: &str) -> Result<&mut IvfIndex, AllHandsError> {
        let ing = self.ingest.as_mut().ok_or_else(|| pipeline_only(op))?;
        let rows = ing.texts.len();
        Ok(ensure_doc_index(ing, &self.recorder, &self.config.ingest, rows))
    }

    /// The `&self` half of the read-path borrow split: top-`k` rows most
    /// similar to `text`, requiring the document index to already exist
    /// (call [`prepare_search`](Self::prepare_search) once, or ingest a
    /// batch). Unlike [`search_similar`](Self::search_similar) this never
    /// mutates, so concurrent readers can share the session.
    pub fn search_similar_prepared(
        &self,
        text: &str,
        k: usize,
    ) -> Result<Vec<(u64, f32)>, AllHandsError> {
        let ing = self.ingest.as_ref().ok_or_else(|| pipeline_only("search_similar"))?;
        let Some(index) = ing.doc_index.as_ref() else {
            return Err(AllHandsError::Pipeline(
                "search index not built yet: call prepare_search() (or ingest a batch) first"
                    .to_string(),
            ));
        };
        let query = ing.llm.embedder().embed(text);
        Ok(index.search(&query, k).into_iter().map(|h| (h.id, h.score)).collect())
    }

    /// Whether this session is a read replica (see
    /// [`AllHandsBuilder::replica`]).
    pub fn is_replica(&self) -> bool {
        self.replica
    }

    /// The journal's replication cursor position as `(next_seq,
    /// chain_head)`, if journaled. Two sessions at the same position hold
    /// byte-identical WAL histories — the convergence check replication
    /// tests assert.
    pub fn chain_position(&self) -> Option<(u64, String)> {
        self.journal.as_ref().map(|j| j.chain_position())
    }

    /// The run fingerprint the journal is bound to, if journaled and
    /// established.
    pub fn run_fingerprint(&self) -> Option<&str> {
        self.journal.as_ref().and_then(|j| j.run_fingerprint())
    }

    /// Replica catch-up: verify and install a slice of the leader's WAL
    /// suffix (from [`Journal::tail_after`] on the leader), then apply each
    /// entry to the in-memory state through the session reducer every other
    /// path uses — ingest deltas carry their own batch texts, QA entries
    /// restore the agent's answer history, and the header verifies the run
    /// fingerprint. Entries must arrive in chain order starting at this
    /// session's `next_seq`; anything else is refused before touching the
    /// journal file, so a failed stream leaves the replica at a clean entry
    /// boundary to resume from.
    ///
    /// The replica's own checkpoint policy applies as batches land, so a
    /// long-lived follower compacts its journal on the same cadence as the
    /// leader.
    pub fn apply_tail(&mut self, entries: &[allhands_journal::TailEntry]) -> Result<TailReport, AllHandsError> {
        if self.journal.is_none() {
            return Err(AllHandsError::Pipeline(
                "apply_tail requires a journaled session (builder().journal(..))".to_string(),
            ));
        }
        let mut ingest_batches = 0usize;
        let mut answers = 0usize;
        for te in entries {
            let entry = self
                .journal
                .as_mut()
                .expect("journal presence checked above")
                .append_raw(&te.line)
                .map_err(jerr)?;
            let (delta, resilience) = match decode_entry(&entry) {
                Ok(Some(decoded)) => Ok(decoded),
                // The fingerprint was verified against the established run
                // by `append_raw`; nothing to apply.
                Ok(None) if entry.stage == "header" => continue,
                // `stage1`/`stage2` snapshots only exist below any bundle's
                // export point, and anything else is foreign: neither can
                // be applied incrementally.
                Ok(None) => Err(format!(
                    "stage {:?} at seq {} cannot be applied incrementally; re-bootstrap the replica",
                    entry.stage, entry.seq
                )),
                Err(e) => Err(format!("{e} at seq {}", entry.seq)),
            }
            .map_err(|m| AllHandsError::Pipeline(format!("replication: {m}")))?;
            self.resilience.restore(&resilience);
            match self.apply(delta, true)? {
                Applied::Batch(report) => {
                    self.recorder.incr("replica.batches_applied");
                    ingest_batches += 1;
                    self.maybe_checkpoint(report.batch);
                }
                Applied::Answer(_) => {
                    self.recorder.incr("replica.answers_applied");
                    answers += 1;
                }
            }
        }
        let (next_seq, chain_head) = self
            .journal
            .as_ref()
            .expect("journal presence checked above")
            .chain_position();
        Ok(TailReport {
            applied: entries.len(),
            ingest_batches,
            answers,
            next_seq,
            chain_head,
        })
    }

    /// Remove one row's vector from the incremental document index (e.g. a
    /// user deletion request): similarity search stops returning it, while
    /// the structured frame keeps the row. Returns whether the id was
    /// present. Not journaled as its own entry: a retract made before a
    /// checkpoint survives [`recover_latest`](AllHandsBuilder::recover_latest),
    /// whose checkpoint carries the index layout, but a pure WAL replay
    /// (resume, or a replica applying the tail) rebuilds the index with the
    /// row present until `retract` is called again.
    pub fn retract(&mut self, id: u64) -> Result<bool, AllHandsError> {
        if self.replica {
            return Err(AllHandsError::ReadOnly(
                "replica session: retract goes to the leader; this session serves reads only"
                    .to_string(),
            ));
        }
        Ok(self.doc_index("retract")?.remove(id))
    }

    /// Register a custom analysis plugin available to generated code.
    pub fn register_plugin(&mut self, name: &str, f: allhands_query::plugins::PluginFn) {
        self.agent.register_plugin(name, f);
    }

    /// Access the underlying QA agent.
    pub fn agent_mut(&mut self) -> &mut QaAgent {
        &mut self.agent
    }
}

/// The error an operation needing retained pipeline state reports on an
/// [`AllHands::from_frame`] session.
fn pipeline_only(op: &str) -> AllHandsError {
    AllHandsError::Pipeline(format!("{op} requires a pipeline-built session (builder().analyze(..))"))
}

/// Distinct labels of the labeled sample, in first-appearance order — the
/// label vocabulary both the one-shot pipeline and a recovered session
/// classify against.
fn distinct_labels(labeled_sample: &[LabeledExample]) -> Vec<String> {
    let mut seen = Vec::new();
    for ex in labeled_sample {
        if !seen.contains(&ex.label) {
            seen.push(ex.label.clone());
        }
    }
    seen
}

/// The run-wide resilience context, recording into the run's recorder.
fn resilience_ctx(config: &AllHandsConfig, recorder: &Recorder) -> Arc<ResilienceCtx> {
    Arc::new(ResilienceCtx::with_recorder(config.resilience, recorder.clone()))
}

/// The *decide* half of a live ingest batch: classify the new documents,
/// assign each to an existing topic by embedding similarity, run the
/// pending-pool flush if it fills, and return the delta that
/// [`AllHands::apply`] commits. Writes no session state — it only warms
/// caches (the demonstration pool, and the batch's row embeddings, which
/// the reducer then finds already computed, so the batch is embedded once).
fn decide_batch(
    ing: &mut IngestState,
    batch: &[String],
    config: &AllHandsConfig,
    resilience: &Arc<ResilienceCtx>,
    rec: &Recorder,
) -> IngestSnapshot {
    let cfg = &config.ingest;
    // Stage 1: classify only the new documents against the retained
    // demonstration pool.
    let demos = match &ing.demos {
        Some(d) => Arc::clone(d),
        None => {
            // Resumed run whose one-shot stage 1 replayed: fit lazily.
            let mut d = DemoIndex::fit(&ing.llm, &ing.labeled_sample, &ing.labels, &config.icl);
            d.set_recorder(rec.clone());
            let d = Arc::new(d);
            ing.demos = Some(Arc::clone(&d));
            d
        }
    };
    let predicted: Vec<String> = IclClassifier::from_demos(&ing.llm, demos, config.icl.clone())
        .with_resilience(Arc::clone(resilience))
        .classify_batch(batch);

    // Stage 2: similarity assignment against the existing topic list.
    let start_row = ing.texts.len();
    let mut pending = ing.pending.clone();
    let mut topics: Vec<Vec<String>> = Vec::with_capacity(batch.len());
    {
        let _assign_span = rec.span("assign");
        // Drop embeddings a decided-but-never-applied batch left behind.
        ing.row_embeds.truncate(start_row);
        backfill_row_embeds(ing, rec, batch);
        // Batch-static centroids: every document in the batch is scored
        // against the same targets, computed from the pre-batch state a
        // replayed run restores exactly — so assignment never depends on
        // within-batch order or on float drift from incremental updates.
        let centroids = topic_centroids(ing, start_row);
        for (i, emb) in ing.row_embeds[start_row..].iter().enumerate() {
            // Strictly-greater under `total_cmp`: the first topic wins ties.
            let best = centroids
                .iter()
                .enumerate()
                .filter_map(|(j, c)| Some((j, emb.cosine(c.as_ref()?))))
                .reduce(|best, cur| if cur.1.total_cmp(&best.1).is_gt() { cur } else { best });
            match best {
                Some((j, s)) if s >= cfg.assign_threshold => {
                    topics.push(vec![ing.topic_list[j].clone()]);
                }
                _ => {
                    pending.push(start_row + i);
                    topics.push(vec!["others".to_string()]);
                }
            }
        }
    }
    let routed = pending.len() - ing.pending.len();
    rec.add("ingest.assigned", (batch.len() - routed) as u64);
    rec.add("ingest.routed_pending", routed as u64);

    // Flush: one bounded re-summarization round over the pending pool.
    let mut topic_list = ing.topic_list.clone();
    let mut rewrites: Vec<TopicRewrite> = Vec::new();
    let mut coined: Vec<String> = Vec::new();
    let mut flushed = 0usize;
    if pending.len() >= cfg.pending_threshold {
        let _flush_span = rec.span("resummarize");
        rec.incr("ingest.flushes");
        let pending_rows = std::mem::take(&mut pending);
        flushed = pending_rows.len();
        // The corpus so far, this batch included, grounds spell-normalization.
        let corpus: Vec<String> = ing.texts.iter().chain(batch).cloned().collect();
        let pending_texts: Vec<String> =
            pending_rows.iter().map(|&r| corpus[r].clone()).collect();
        let modeler = AbstractiveTopicModeler::new(&ing.llm, config.topics.clone())
            .with_resilience(Arc::clone(resilience));
        let (new_topics, degraded, quarantined) =
            modeler.assign_pending(&pending_texts, &mut topic_list, &corpus);
        coined = topic_list[ing.topic_list.len()..].to_vec();
        rec.add("ingest.coined", coined.len() as u64);
        if degraded > 0 {
            resilience.note_degradation_once(
                "ingest",
                &format!(
                    "re-summarization degraded for {degraded} pending document(s); kept \"others\""
                ),
            );
        }
        if quarantined > 0 {
            resilience.note_degradation_once(
                "ingest",
                &format!("{quarantined} pending document(s) quarantined during re-summarization"),
            );
        }
        for (row, new) in pending_rows.into_iter().zip(new_topics) {
            if row >= start_row {
                topics[row - start_row] = new.clone();
            }
            rewrites.push(TopicRewrite { row: row as u64, topics: new });
        }
    }
    IngestSnapshot {
        texts: batch.to_vec(),
        predicted,
        topics,
        topic_list,
        pending: pending.iter().map(|&r| r as u64).collect(),
        rewrites,
        assigned: (batch.len() - routed) as u64,
        routed: routed as u64,
        flushed: flushed as u64,
        coined,
        resilience: resilience.snapshot(),
    }
}

/// Ensure every session row, then each of `extra` (the rows of a batch
/// being decided, in order), has a cached embedding, computing the missing
/// tail data-parallel in one pass (deterministic across thread counts).
fn backfill_row_embeds(ing: &mut IngestState, rec: &Recorder, extra: &[String]) {
    let missing: Vec<&String> = ing.texts.iter().chain(extra).skip(ing.row_embeds.len()).collect();
    if missing.is_empty() {
        return;
    }
    let embs: Vec<Embedding> =
        allhands_par::par_map_indexed_recorded(rec, "ingest.embed", &missing, |_, t| {
            ing.llm.embedder().embed(t)
        });
    ing.row_embeds.extend(embs);
}

/// Per-topic assignment targets for the first `upto` rows: the mean
/// embedding of a topic's member rows, or the topic label's own embedding
/// while it has no members yet. `"others"` is never a target (`None`) —
/// landing there is exactly what routes a document to the pending pool.
///
/// Centroids are recomputed from row state each batch rather than updated
/// incrementally: the same `(doc_topics, row_embeds)` state yields the
/// same centroids whether it was reached live or by journal replay, so a
/// resumed run's later batches assign byte-identically.
fn topic_centroids(ing: &IngestState, upto: usize) -> Vec<Option<Embedding>> {
    let dims = ing.llm.embedder().dims();
    let mut sums: Vec<Embedding> = vec![Embedding::zeros(dims); ing.topic_list.len()];
    let mut counts = vec![0usize; ing.topic_list.len()];
    for (row, topics) in ing.doc_topics.iter().take(upto).enumerate() {
        for t in topics {
            if let Some(j) = ing.topic_list.iter().position(|x| x == t) {
                sums[j].add_scaled(&ing.row_embeds[row], 1.0);
                counts[j] += 1;
            }
        }
    }
    ing.topic_list
        .iter()
        .zip(sums)
        .zip(counts)
        .map(|((t, sum), n)| {
            if t == "others" {
                None
            } else if n == 0 {
                Some(ing.llm.embedder().embed(t))
            } else {
                let inv = 1.0 / n as f32;
                let mut values = sum.into_vec();
                for v in &mut values {
                    *v *= inv;
                }
                Some(Embedding::new(values))
            }
        })
        .collect()
}

/// Build the incremental document index on first use: embed and insert all
/// rows before `seed_rows` (the current batch is inserted by the caller),
/// train one partition per [`IngestConfig::ivf_partition_docs`] (clamped to
/// `[2, 64]`), and arm the staleness-ratio auto-retrain.
fn ensure_doc_index<'i>(
    ing: &'i mut IngestState,
    rec: &Recorder,
    cfg: &IngestConfig,
    seed_rows: usize,
) -> &'i mut IvfIndex {
    if ing.doc_index.is_none() {
        backfill_row_embeds(ing, rec, &[]);
        let mut idx = IvfIndex::new(ing.llm.embedder().dims(), cfg.ivf_nprobe.max(1));
        idx.set_recorder(rec.clone());
        idx.set_retrain_policy(Some(cfg.ivf_staleness));
        for (i, emb) in ing.row_embeds[..seed_rows].iter().enumerate() {
            idx.insert(Record::new(i as u64, emb.clone()));
        }
        idx.train((seed_rows / cfg.ivf_partition_docs.max(1)).clamp(2, 64));
        ing.doc_index = Some(idx);
    }
    ing.doc_index.as_mut().expect("document index built above")
}

/// Rebuild the document index from checkpoint `marker`'s layout, filling
/// each record from the row-embedding cache (backfilled here from the
/// restored texts: the vectors the index held when the checkpoint was
/// written). A layout naming a row the checkpoint does not hold is an
/// inconsistent checkpoint.
fn restore_doc_index(
    ing: &mut IngestState,
    layout: IvfState,
    rec: &Recorder,
    marker: u64,
) -> Result<(), AllHandsError> {
    backfill_row_embeds(ing, rec, &[]);
    let embeds = &ing.row_embeds;
    let mut idx = IvfIndex::from_state(layout, |id| {
        usize::try_from(id).ok().and_then(|row| embeds.get(row))
    })
    .map_err(|e| {
        AllHandsError::Pipeline(format!(
            "recover: checkpoint {marker} is internally inconsistent ({e})"
        ))
    })?;
    idx.set_recorder(rec.clone());
    ing.doc_index = Some(idx);
    Ok(())
}

/// Lexical sentiment estimate in [-1, 1], blending a valence lexicon with
/// emoji valence — the lightweight "sentiment feature extraction" the
/// structured frame carries.
pub fn estimate_sentiment(text: &str) -> f64 {
    const POSITIVE: &[&str] = &[
        "love", "great", "amazing", "awesome", "fantastic", "excellent", "perfect",
        "wonderful", "smooth", "fast", "helpful", "thanks", "good", "nice", "keep",
    ];
    const NEGATIVE: &[&str] = &[
        "crash", "crashes", "bug", "broken", "error", "terrible", "awful", "worst",
        "horrible", "slow", "lag", "annoying", "hate", "bad", "wrong", "issue",
        "problem", "fails", "useless", "irrelevant", "suck", "sucks",
    ];
    let tokens = allhands_text::light_preprocess(text);
    let mut score = 0.0f64;
    let mut hits = 0usize;
    for tok in &tokens {
        if POSITIVE.contains(&tok.as_str()) {
            score += 1.0;
            hits += 1;
        } else if NEGATIVE.contains(&tok.as_str()) {
            score -= 1.0;
            hits += 1;
        }
    }
    for e in allhands_text::extract_emoji(text) {
        let v = allhands_text::emoji::emoji_valence(e) as f64;
        if v != 0.0 {
            score += v;
            hits += 1;
        }
    }
    if hits == 0 {
        0.0
    } else {
        (score / hits as f64).clamp(-1.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_fingerprint_distinguishes_collection_boundaries() {
        let tier = ModelTier::Gpt35;
        let ex = |t: &str, l: &str| LabeledExample { text: t.into(), label: l.into() };
        // Identical flat byte sequence (t1, t2, e1, l1), three different
        // collection splits — every pair must fingerprint differently.
        let pol = policy_digest(&AllHandsConfig::default());
        let a = run_fingerprint(tier, &["t1".into(), "t2".into()], &[ex("e1", "l1")], &[], &pol);
        let b = run_fingerprint(tier, &["t1".into()], &[ex("t2", "e1")], &["l1".into()], &pol);
        let c = run_fingerprint(
            tier,
            &["t1".into(), "t2".into()],
            &[],
            &["e1".into(), "l1".into()],
            &pol,
        );
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        // And it stays deterministic for identical inputs.
        let a2 =
            run_fingerprint(tier, &["t1".into(), "t2".into()], &[ex("e1", "l1")], &[], &pol);
        assert_eq!(a, a2);
    }

    #[test]
    fn run_fingerprint_pins_the_durability_policy() {
        let tier = ModelTier::Gpt35;
        let texts = vec!["t1".to_string()];
        let base = policy_digest(&AllHandsConfig::default());
        let changed_cfg = AllHandsConfig {
            checkpoint: CheckpointPolicy { every_n_batches: 2, keep_last_k: 2 },
            ..AllHandsConfig::default()
        };
        let changed = policy_digest(&changed_cfg);
        assert_ne!(base, changed);
        assert_ne!(
            run_fingerprint(tier, &texts, &[], &[], &base),
            run_fingerprint(tier, &texts, &[], &[], &changed)
        );
    }

    #[test]
    fn key_ordinals_read_every_digit_up_to_the_colon() {
        assert_eq!(key_ordinal("q999:ab12", 'q'), Some(999));
        assert_eq!(key_ordinal("q1000:ab12", 'q'), Some(1000));
        assert_eq!(key_ordinal("b99999:ab12", 'b'), Some(99_999));
        assert_eq!(key_ordinal("b100000:ab12", 'b'), Some(100_000));
        assert_eq!(key_ordinal(&format!("b{:05}:x", 7), 'b'), Some(7));
        for malformed in ["", "q", "q:ab", "q12", "qx1:ab", "q+1:ab", "q-1:ab", "b00001:x"] {
            assert_eq!(key_ordinal(malformed, 'q'), None, "{malformed:?}");
        }
    }

    /// A pipeline session over [`smoke_corpus`] with one ingested batch, so
    /// its document index exists and is trained.
    fn indexed_session() -> AllHands {
        let (texts, labeled, predefined) = smoke_corpus();
        let (mut ah, _) =
            AllHands::builder(ModelTier::Gpt4).analyze(&texts, &labeled, &predefined).unwrap();
        let batch: Vec<String> =
            (0..6).map(|i| format!("the app freezes on the login screen {i}")).collect();
        ah.ingest(&batch).unwrap();
        assert!(ah.ingest.as_ref().unwrap().doc_index.as_ref().unwrap().is_trained());
        ah
    }

    /// Checkpoints used to carry every record's vector inline in the index
    /// state. Such a payload still decodes (unknown fields are skipped) and
    /// restores to the same index as the vector-free layout does.
    #[test]
    fn checkpoints_with_inline_vectors_restore_the_same_index() {
        /// The earlier per-record state: the layout entry plus its vector.
        #[derive(Serialize)]
        struct InlineRecordState {
            id: u64,
            vector: Embedding,
            metadata: Vec<allhands_vectordb::MetaPair>,
        }
        let mut ah = indexed_session();
        let state = ah.checkpoint_state().unwrap();
        let layout = state.doc_index.clone().unwrap();
        let ing = ah.ingest.as_mut().unwrap();
        let original = ing.doc_index.take().unwrap();
        let inline: Vec<Vec<InlineRecordState>> = layout
            .partitions
            .iter()
            .map(|p| {
                p.iter()
                    .map(|r| InlineRecordState {
                        id: r.id,
                        vector: original.get(r.id).unwrap().vector,
                        metadata: r.metadata.clone(),
                    })
                    .collect()
            })
            .collect();
        let current = serde_json::to_string(&state).unwrap();
        let partitions = serde_json::to_string(&layout.partitions).unwrap();
        assert_eq!(current.matches(&partitions).count(), 1);
        assert!(!current.contains("\"vector\""));
        let inline_json = serde_json::to_string(&inline).unwrap();
        let earlier = current.replacen(&partitions, &inline_json, 1);
        assert!(earlier.len() > 10 * current.len(), "the vectors were the bulk of a checkpoint");

        let queries = ["app crashes on startup", "love the new design", "login freezes"];
        let bits = |v: &Embedding| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for payload in [current, earlier] {
            let value: serde_json::Value = serde_json::from_str(&payload).unwrap();
            let decoded: CheckpointState = allhands_journal::decode(&value).unwrap();
            ing.row_embeds.clear();
            restore_doc_index(ing, decoded.doc_index.unwrap(), &Recorder::disabled(), 1).unwrap();
            let restored = ing.doc_index.take().unwrap();
            assert_eq!(restored.to_state(), layout);
            for id in 0..ing.texts.len() as u64 {
                let (a, b) = (original.get(id).unwrap(), restored.get(id).unwrap());
                assert_eq!(bits(&a.vector), bits(&b.vector), "row {id}");
            }
            for q in queries {
                let q = ing.llm.embedder().embed(q);
                assert_eq!(original.search(&q, 8), restored.search(&q, 8));
            }
        }
    }

    #[test]
    fn index_layout_naming_a_missing_row_is_an_inconsistent_checkpoint() {
        let mut ah = indexed_session();
        let layout = ah.checkpoint_state().unwrap().doc_index.unwrap();
        let ing = ah.ingest.as_mut().unwrap();
        let rows = ing.texts.len() as u64;
        for bad in [rows, rows + 7, u64::MAX] {
            let mut tampered = layout.clone();
            tampered.partitions[0].push(allhands_vectordb::RecordState { id: bad, metadata: vec![] });
            let err = restore_doc_index(ing, tampered, &Recorder::disabled(), 3).unwrap_err();
            assert!(matches!(err, AllHandsError::Pipeline(_)), "{err:?}");
            let msg = err.to_string();
            assert!(msg.contains("checkpoint 3 is internally inconsistent"), "{msg}");
            assert!(msg.contains(&format!("record {bad}")), "{msg}");
        }
        restore_doc_index(ing, layout, &Recorder::disabled(), 3).unwrap();
    }

    #[test]
    fn sentiment_signs() {
        assert!(estimate_sentiment("I love this great app 😍") > 0.5);
        assert!(estimate_sentiment("terrible crash bug 😡") < -0.5);
        assert_eq!(estimate_sentiment("the weather outside"), 0.0);
    }

    /// Thirty crash/praise texts, twenty labeled demonstrations and two
    /// predefined topics.
    fn smoke_corpus() -> (Vec<String>, Vec<LabeledExample>, Vec<String>) {
        let texts: Vec<String> = (0..30)
            .map(|i| {
                if i % 2 == 0 {
                    format!("the app crashes with an error code {i}")
                } else {
                    format!("love the new look, great update {i}")
                }
            })
            .collect();
        let labeled: Vec<LabeledExample> = (0..20)
            .map(|i| {
                if i % 2 == 0 {
                    LabeledExample {
                        text: format!("crash error report number {i}"),
                        label: "informative".into(),
                    }
                } else {
                    LabeledExample {
                        text: format!("nice great love it {i}"),
                        label: "non-informative".into(),
                    }
                }
            })
            .collect();
        let predefined = vec!["crash".to_string(), "praise".to_string()];
        (texts, labeled, predefined)
    }

    #[test]
    fn full_pipeline_smoke() {
        let (texts, labeled, predefined) = smoke_corpus();
        let (mut ah, frame) = AllHands::builder(ModelTier::Gpt4)
            .recorder(RecorderMode::Enabled)
            .analyze(&texts, &labeled, &predefined)
            .unwrap();
        assert_eq!(frame.n_rows(), 30);
        for col in ["text", "label", "sentiment", "topics", "text_len"] {
            assert!(frame.has_column(col), "missing {col}");
        }
        let r = ah.ask("How many feedback entries are there?").expect("ask failed");
        assert!(r.error.is_none(), "{:?}", r.error);
        let report = ah.run_report();
        assert!(report.counter("classify.docs") >= 30);
        assert_eq!(report.counter("qa.questions"), 1);
        assert!(report.span_paths().iter().any(|p| p == "pipeline > classify"));
    }
}
