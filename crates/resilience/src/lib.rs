//! Resilience layer for the AllHands pipeline.
//!
//! The paper's pipeline calls an LLM hundreds of times per run (Sec. 3);
//! in production each of those calls can time out, get throttled, or come
//! back garbled. This crate makes that failure surface *testable*:
//!
//! - [`FaultPlan`] schedules transient faults on model calls by seed —
//!   same seed, same faults, bit-exact, reusing the hash-based determinism
//!   the simulated model already uses for label slips;
//! - [`RetryPolicy`] retries transient failures with exponential backoff
//!   and deterministic jitter (delays are virtual: recorded, never slept);
//! - [`CircuitBreaker`] (one per task [`Head`]) stops hammering a failing
//!   head and lets stages fall back to degraded-but-useful behaviour;
//! - [`AllHandsError`] is the unified error taxonomy every stage converges
//!   on, with a single `retryable()` classification.
//!
//! [`ResilienceCtx`] ties these together: stages share one `Arc<ResilienceCtx>`
//! and run every typed-head call through [`ResilienceCtx::call`], the one
//! place faults are injected, which also does breaker admission, the retry
//! loop, backoff bookkeeping, and breaker state transitions. Degradations
//! (fallback classifier engaged, refinement skipped, partial answer) are
//! recorded as [`DegradationEvent`]s so every degraded output carries an
//! explicit, user-visible note.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod breaker;
pub mod error;
pub mod fault;
pub mod retry;

pub use breaker::{BreakerConfig, BreakerSnapshot, BreakerState, CircuitBreaker, Head};
pub use error::AllHandsError;
pub use fault::{FaultKind, FaultPlan, InjectedCrash};
pub use retry::RetryPolicy;

use allhands_obs::Recorder;
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// Knobs for the whole resilience layer. `Default` disables injection and
/// keeps conservative retry/breaker settings, so a pipeline constructed
/// without explicit chaos configuration behaves exactly like one with no
/// resilience layer at all (single attempt, nothing injected).
#[derive(Debug, Clone, Copy)]
pub struct ResilienceConfig {
    /// Master switch for fault injection. Retries and breakers are always
    /// armed (they are inert when nothing fails).
    pub enabled: bool,
    pub fault: FaultPlan,
    pub retry: RetryPolicy,
    pub breaker: BreakerConfig,
    /// Poison-pill marker: any document whose text contains this substring
    /// panics mid-processing (via [`ResilienceCtx::check_poison`]),
    /// exercising the per-item isolation in `allhands-par`. `None` (the
    /// default) disarms the pill.
    pub poison_marker: Option<&'static str>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            enabled: false,
            fault: FaultPlan::none(),
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            poison_marker: None,
        }
    }
}

impl ResilienceConfig {
    /// A chaos-test configuration: uniform faults at `total_rate` across all
    /// five transient kinds, jitter and fault schedule sharing one `seed`.
    pub fn chaos(seed: u64, total_rate: f64) -> Self {
        ResilienceConfig {
            enabled: true,
            fault: FaultPlan::uniform(seed, total_rate),
            retry: RetryPolicy { seed, ..RetryPolicy::default() },
            breaker: BreakerConfig::default(),
            poison_marker: None,
        }
    }
}

/// One recorded degradation: which stage degraded and why.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradationEvent {
    /// Stage label: `"classification"`, `"topic-modeling"`, `"qa-agent"`.
    pub stage: String,
    /// Human-readable note, also surfaced on degraded outputs.
    pub note: String,
}

/// One quarantined document: a poison pill (or any other per-item panic)
/// that was isolated by `allhands-par` instead of taking the batch down.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineRecord {
    /// Stage label: `"classification"`, `"topic-modeling"`.
    pub stage: String,
    /// The document's id.
    pub doc_id: String,
    /// The panic payload, as a string.
    pub payload: String,
}

/// Aggregate counters for a run, for reporting and assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilienceStats {
    /// Operation attempts placed through [`ResilienceCtx::call`].
    pub attempts: u64,
    /// Attempts that were retries (attempt ≥ 2).
    pub retries: u64,
    /// Operations that ultimately failed after exhausting their budget.
    pub exhausted: u64,
    /// Calls denied by an open breaker without being attempted.
    pub breaker_denials: u64,
    /// Total virtual backoff across all retries, in milliseconds.
    pub total_backoff_ms: u64,
}

struct CtxState {
    breakers: [CircuitBreaker; 3],
    degradations: Vec<DegradationEvent>,
    stats: ResilienceStats,
    /// Attempts placed so far, used as the fault plan's call index. One
    /// counter across heads keeps the schedule a pure function of call
    /// order, which is itself deterministic.
    fault_calls: u64,
    /// Faults injected so far (reporting).
    injected: u64,
    /// Crash points passed so far; [`ResilienceCtx::crash_point`] panics
    /// when this counter reaches `fault.crash_at`.
    crash_points: u64,
    /// Documents isolated by per-item panic quarantine, in order.
    quarantine: Vec<QuarantineRecord>,
}

/// The complete mutable state of a [`ResilienceCtx`], serialized into the
/// crash journal at every stage boundary. Fault injection is a pure
/// function of the shared call counter, so a resumed run that *skips* a
/// completed stage must restore these counters to stay on the exact fault
/// schedule the crashed run was on — that is what makes resumed transcripts
/// byte-identical to uninterrupted ones.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceSnapshot {
    pub fault_calls: u64,
    pub injected: u64,
    pub crash_points: u64,
    pub stats: ResilienceStats,
    pub breakers: Vec<BreakerSnapshot>,
    pub degradations: Vec<DegradationEvent>,
    pub quarantine: Vec<QuarantineRecord>,
}

/// Shared resilience state for one pipeline run. Stages hold an
/// `Arc<ResilienceCtx>` and route head-level operations through [`call`].
///
/// [`call`]: ResilienceCtx::call
pub struct ResilienceCtx {
    config: ResilienceConfig,
    state: Mutex<CtxState>,
    recorder: Recorder,
}

impl ResilienceCtx {
    pub fn new(config: ResilienceConfig) -> Self {
        Self::with_recorder(config, Recorder::disabled())
    }

    /// Like [`new`](Self::new), but metrics flow into `recorder`
    /// (`resilience.*` counters, breaker transition counts).
    pub fn with_recorder(config: ResilienceConfig, recorder: Recorder) -> Self {
        let breaker = CircuitBreaker::new(config.breaker);
        ResilienceCtx {
            config,
            state: Mutex::new(CtxState {
                breakers: [breaker.clone(), breaker.clone(), breaker],
                degradations: Vec::new(),
                stats: ResilienceStats::default(),
                fault_calls: 0,
                injected: 0,
                crash_points: 0,
                quarantine: Vec::new(),
            }),
            recorder,
        }
    }

    pub fn config(&self) -> &ResilienceConfig {
        &self.config
    }

    /// The observability recorder shared with this ctx (possibly disabled).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    fn idx(head: Head) -> usize {
        match head {
            Head::Classify => 0,
            Head::Summarize => 1,
            Head::Codegen => 2,
        }
    }

    fn state_label(state: BreakerState) -> &'static str {
        match state {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    /// Count a breaker state transition (deterministic: breaker state is a
    /// pure function of the sequential operation-outcome order).
    fn record_transition(&self, head: Head, before: BreakerState, after: BreakerState) {
        if before != after && self.recorder.is_enabled() {
            self.recorder.incr(&format!(
                "resilience.breaker.{}.{}_to_{}",
                head.label(),
                Self::state_label(before),
                Self::state_label(after)
            ));
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CtxState> {
        // A poisoned lock means another stage panicked; resilience state is
        // plain counters, so continuing with it is safe.
        match self.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Run `op` through the head's breaker and retry policy.
    ///
    /// `op` receives the 1-based attempt number. Transient errors are
    /// retried up to `retry.max_attempts` with recorded virtual backoff;
    /// permanent errors abort immediately. The breaker observes the
    /// *operation* outcome (post-retries), not individual attempts, so a
    /// single flaky call that recovers on retry does not count against it.
    pub fn call<T>(
        &self,
        head: Head,
        mut op: impl FnMut(u32) -> Result<T, AllHandsError>,
    ) -> Result<T, AllHandsError> {
        {
            let mut st = self.lock();
            let before = st.breakers[Self::idx(head)].state();
            let admitted = st.breakers[Self::idx(head)].admit();
            let after = st.breakers[Self::idx(head)].state();
            drop(st);
            self.record_transition(head, before, after);
            if !admitted {
                self.lock().stats.breaker_denials += 1;
                if self.recorder.is_enabled() {
                    self.recorder.incr("resilience.breaker_denials");
                    self.recorder.incr(&format!("resilience.breaker_denials.{}", head.label()));
                }
                return Err(AllHandsError::BreakerOpen { head });
            }
        }
        let policy = self.config.retry;
        let mut attempt = 1u32;
        loop {
            // The fault plan is consulted here and nowhere else: an
            // injected fault costs the attempt without running the
            // operation. Each attempt advances the plan's call index, so
            // retries of a faulted call re-roll rather than re-fault
            // forever.
            let injected = {
                let mut st = self.lock();
                st.stats.attempts += 1;
                if attempt > 1 {
                    st.stats.retries += 1;
                }
                if self.config.enabled {
                    let idx = st.fault_calls;
                    st.fault_calls += 1;
                    let fault = self.config.fault.decide(head, idx);
                    if fault.is_some() {
                        st.injected += 1;
                    }
                    fault
                } else {
                    None
                }
            };
            if self.recorder.is_enabled() {
                self.recorder.incr("resilience.attempts");
                if attempt > 1 {
                    self.recorder.incr("resilience.retries");
                    self.recorder.incr(&format!("resilience.retries.{}", head.label()));
                }
                if let Some(kind) = injected {
                    self.recorder.incr("resilience.injected");
                    self.recorder.incr(&format!("resilience.injected.{}", kind.label()));
                }
            }
            let outcome = match injected {
                Some(kind) => Err(AllHandsError::Llm(allhands_llm::LlmError::new(
                    kind.error_kind(),
                    format!("injected {} fault on {} head", kind.label(), head.label()),
                ))),
                None => op(attempt),
            };
            match outcome {
                Ok(value) => {
                    self.lock().breakers[Self::idx(head)].record_success();
                    return Ok(value);
                }
                Err(e) if !e.retryable() => {
                    self.lock().breakers[Self::idx(head)].record_failure();
                    return Err(e);
                }
                Err(e) => {
                    if attempt >= policy.max_attempts.max(1) {
                        let mut st = self.lock();
                        st.breakers[Self::idx(head)].record_failure();
                        st.stats.exhausted += 1;
                        drop(st);
                        self.recorder.incr("resilience.exhausted");
                        self.recorder.incr(&format!("resilience.exhausted.{}", head.label()));
                        return Err(AllHandsError::RetriesExhausted {
                            head,
                            attempts: attempt,
                            last: Box::new(e),
                        });
                    }
                    attempt += 1;
                    let delay = policy.backoff_ms(head, attempt);
                    self.lock().stats.total_backoff_ms += delay;
                }
            }
        }
    }

    /// Current breaker state for `head`.
    pub fn breaker_state(&self, head: Head) -> BreakerState {
        self.lock().breakers[Self::idx(head)].state()
    }

    /// Total closed→open transitions for `head`.
    pub fn breaker_trips(&self, head: Head) -> u32 {
        self.lock().breakers[Self::idx(head)].trips()
    }

    /// Record a degradation; the note should be specific enough for a user
    /// reading a degraded output to understand what they lost.
    pub fn note_degradation(&self, stage: &str, note: impl Into<String>) {
        self.recorder.incr("resilience.degradations");
        self.lock()
            .degradations
            .push(DegradationEvent { stage: stage.to_string(), note: note.into() });
    }

    /// Like [`note_degradation`](Self::note_degradation), but skipped if an
    /// identical event was already recorded — for per-item fallbacks that
    /// would otherwise flood the log.
    pub fn note_degradation_once(&self, stage: &str, note: &str) {
        let mut st = self.lock();
        if !st.degradations.iter().any(|d| d.stage == stage && d.note == note) {
            st.degradations
                .push(DegradationEvent { stage: stage.to_string(), note: note.to_string() });
            drop(st);
            self.recorder.incr("resilience.degradations");
        }
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.lock().injected
    }

    /// All degradations recorded so far, in order.
    pub fn degradations(&self) -> Vec<DegradationEvent> {
        self.lock().degradations.clone()
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> ResilienceStats {
        self.lock().stats
    }

    /// A named crash injection point. Every call advances a counter; when
    /// the counter reaches `fault.crash_at` the process "crashes" by
    /// panicking with an [`InjectedCrash`] payload. Crash points are placed
    /// on the main thread only (stage boundaries and per-question seams),
    /// never inside par-mapped items, so the panic propagates out of
    /// `analyze`/`ask` like a real abort would.
    ///
    /// Deliberately *not* gated on `config.enabled`: crash tests want to
    /// kill a run whose fault plan is otherwise clean.
    pub fn crash_point(&self, name: &str) {
        let idx = {
            let mut st = self.lock();
            let idx = st.crash_points;
            st.crash_points += 1;
            idx
        };
        self.recorder.incr("resilience.crash_points");
        if self.config.fault.crash_at == Some(idx) {
            std::panic::panic_any(InjectedCrash { point: idx, name: name.to_string() });
        }
    }

    /// Crash points passed so far. A chaos harness runs once to count them,
    /// then re-runs with `crash_at` sweeping `0..count`.
    pub fn crash_points_passed(&self) -> u64 {
        self.lock().crash_points
    }

    /// A boxed callback that forwards to [`crash_point`](Self::crash_point),
    /// for components that participate in the seeded crash schedule without
    /// depending on this crate (the journal's checkpoint/compaction seams).
    pub fn crash_hook(self: &std::sync::Arc<Self>) -> Box<dyn Fn(&str) + Send + Sync> {
        let ctx = std::sync::Arc::clone(self);
        Box::new(move |name| ctx.crash_point(name))
    }

    /// Non-panicking poison probe for sequential loops: the payload string
    /// [`check_poison`](Self::check_poison) would panic with, if `text`
    /// contains the configured marker.
    pub fn poison_payload(&self, text: &str) -> Option<String> {
        let marker = self.config.poison_marker?;
        text.contains(marker)
            .then(|| format!("poison pill: document contains {marker:?}"))
    }

    /// Panic if `text` contains the configured poison marker. Stages call
    /// this at the top of per-document work inside the isolated parallel
    /// map; the resulting panic is caught there and the document is
    /// quarantined instead of poisoning the batch.
    pub fn check_poison(&self, text: &str) {
        if let Some(payload) = self.poison_payload(text) {
            std::panic::panic_any(payload);
        }
    }

    /// Record a quarantined document.
    pub fn record_quarantine(&self, stage: &str, doc_id: &str, payload: impl Into<String>) {
        self.recorder.incr("resilience.quarantined");
        self.recorder.incr(&format!("resilience.quarantined.{stage}"));
        self.lock().quarantine.push(QuarantineRecord {
            stage: stage.to_string(),
            doc_id: doc_id.to_string(),
            payload: payload.into(),
        });
    }

    /// All quarantined documents so far, in order.
    pub fn quarantined(&self) -> Vec<QuarantineRecord> {
        self.lock().quarantine.clone()
    }

    /// Whether the run degraded anywhere (fallbacks engaged or documents
    /// quarantined).
    pub fn degraded(&self) -> bool {
        let st = self.lock();
        !st.degradations.is_empty() || !st.quarantine.is_empty()
    }

    /// Export the complete mutable state for journaling.
    pub fn snapshot(&self) -> ResilienceSnapshot {
        let st = self.lock();
        ResilienceSnapshot {
            fault_calls: st.fault_calls,
            injected: st.injected,
            crash_points: st.crash_points,
            stats: st.stats,
            breakers: st.breakers.iter().map(CircuitBreaker::snapshot).collect(),
            degradations: st.degradations.clone(),
            quarantine: st.quarantine.clone(),
        }
    }

    /// Restore state captured by [`snapshot`](Self::snapshot). A resumed
    /// run calls this after skipping a journaled stage so the shared fault
    /// schedule, breakers, and reports continue exactly where the crashed
    /// run left them.
    pub fn restore(&self, snap: &ResilienceSnapshot) {
        let mut st = self.lock();
        st.fault_calls = snap.fault_calls;
        st.injected = snap.injected;
        st.crash_points = snap.crash_points;
        st.stats = snap.stats;
        for (b, s) in st.breakers.iter_mut().zip(snap.breakers.iter()) {
            b.restore(s);
        }
        st.degradations = snap.degradations.clone();
        st.quarantine = snap.quarantine.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use allhands_llm::{LlmError, LlmErrorKind};

    fn transient() -> AllHandsError {
        AllHandsError::Llm(LlmError::new(LlmErrorKind::Timeout, "injected"))
    }

    #[test]
    fn retries_then_succeeds() {
        let ctx = ResilienceCtx::new(ResilienceConfig::default());
        let out = ctx.call(Head::Classify, |attempt| {
            if attempt < 3 { Err(transient()) } else { Ok(attempt) }
        });
        assert_eq!(out.unwrap(), 3);
        let stats = ctx.stats();
        assert_eq!(stats.attempts, 3);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.exhausted, 0);
        assert!(stats.total_backoff_ms > 0, "backoff must be recorded");
        assert_eq!(ctx.breaker_state(Head::Classify), BreakerState::Closed);
    }

    #[test]
    fn permanent_errors_abort_immediately() {
        let ctx = ResilienceCtx::new(ResilienceConfig::default());
        let out: Result<(), _> = ctx.call(Head::Codegen, |_| {
            Err(AllHandsError::Llm(LlmError::new(LlmErrorKind::Generation, "gave up")))
        });
        assert!(matches!(out, Err(AllHandsError::Llm(_))));
        assert_eq!(ctx.stats().attempts, 1, "permanent errors must not be retried");
    }

    #[test]
    fn exhaustion_trips_breaker_and_denies() {
        let mut config = ResilienceConfig::default();
        config.breaker.failure_threshold = 2;
        config.breaker.cooldown_denials = 2;
        let ctx = ResilienceCtx::new(config);
        for _ in 0..2 {
            let out: Result<(), _> = ctx.call(Head::Summarize, |_| Err(transient()));
            assert!(matches!(out, Err(AllHandsError::RetriesExhausted { attempts: 3, .. })));
        }
        assert_eq!(ctx.breaker_state(Head::Summarize), BreakerState::Open);
        assert_eq!(ctx.breaker_trips(Head::Summarize), 1);
        // Denied without attempting.
        let before = ctx.stats().attempts;
        let out: Result<(), _> = ctx.call(Head::Summarize, |_| Ok(()));
        assert!(matches!(out, Err(AllHandsError::BreakerOpen { head: Head::Summarize })));
        assert_eq!(ctx.stats().attempts, before);
        assert_eq!(ctx.stats().breaker_denials, 1);
        // Other heads are unaffected.
        assert!(ctx.call(Head::Classify, |_| Ok(1)).is_ok());
        // After the cooldown, a half-open probe is admitted and can heal.
        let _: Result<(), _> = ctx.call(Head::Summarize, |_| Ok(()));
        assert!(ctx.call(Head::Summarize, |_| Ok(())).is_ok());
        assert_eq!(ctx.breaker_state(Head::Summarize), BreakerState::Closed);
    }

    #[test]
    fn enabled_ctx_injects_head_level_faults_deterministically() {
        let run = |seed: u64| {
            let ctx = ResilienceCtx::new(ResilienceConfig::chaos(seed, 0.4));
            let mut outcomes = Vec::new();
            for i in 0..100 {
                let r = ctx.call(Head::Classify, |_| Ok(i));
                outcomes.push(r.is_ok());
            }
            (outcomes, ctx.stats(), ctx.injected())
        };
        let (a, stats_a, injected_a) = run(11);
        let (b, _, _) = run(11);
        assert_eq!(a, b, "same seed must give identical outcome sequences");
        assert!(injected_a > 0, "0.4 fault rate must inject over 100 calls");
        assert!(stats_a.retries > 0, "injected transients must trigger retries");
        let (c, _, _) = run(12);
        assert_ne!(a, c, "different seeds should diverge");
        // Disabled ctx never injects.
        let ctx = ResilienceCtx::new(ResilienceConfig::default());
        for i in 0..50 {
            assert!(ctx.call(Head::Classify, |_| Ok(i)).is_ok());
        }
        assert_eq!(ctx.injected(), 0);
        assert_eq!(ctx.stats().attempts, 50, "disabled ctx is single-attempt");
    }

    #[test]
    fn note_once_dedupes() {
        let ctx = ResilienceCtx::new(ResilienceConfig::default());
        ctx.note_degradation_once("classification", "fallback engaged");
        ctx.note_degradation_once("classification", "fallback engaged");
        ctx.note_degradation_once("classification", "other note");
        assert_eq!(ctx.degradations().len(), 2);
    }

    /// Satellite: the open → half-open → closed transition, observed at the
    /// ctx level through `call` rather than on a bare breaker.
    #[test]
    fn ctx_half_open_probe_success_closes_breaker() {
        let mut config = ResilienceConfig::default();
        config.breaker.failure_threshold = 1;
        config.breaker.cooldown_denials = 2;
        let ctx = ResilienceCtx::new(config);
        // One exhausted operation opens the breaker.
        let out: Result<(), _> = ctx.call(Head::Classify, |_| Err(transient()));
        assert!(matches!(out, Err(AllHandsError::RetriesExhausted { .. })));
        assert_eq!(ctx.breaker_state(Head::Classify), BreakerState::Open);
        // Cooldown: exactly `cooldown_denials` calls are denied unattempted.
        for _ in 0..2 {
            let out: Result<(), _> = ctx.call(Head::Classify, |_| Ok(()));
            assert!(matches!(out, Err(AllHandsError::BreakerOpen { head: Head::Classify })));
        }
        assert_eq!(ctx.stats().breaker_denials, 2);
        assert_eq!(ctx.breaker_state(Head::Classify), BreakerState::HalfOpen);
        // The probe is admitted, runs the operation, and its success closes.
        let out = ctx.call(Head::Classify, Ok);
        assert_eq!(out.unwrap(), 1);
        assert_eq!(ctx.breaker_state(Head::Classify), BreakerState::Closed);
        assert_eq!(ctx.breaker_trips(Head::Classify), 1);
    }

    /// Satellite: the open → half-open → re-open transition when the probe
    /// itself fails, again through `call`.
    #[test]
    fn ctx_half_open_probe_failure_reopens_breaker() {
        let mut config = ResilienceConfig::default();
        config.breaker.failure_threshold = 1;
        config.breaker.cooldown_denials = 1;
        let ctx = ResilienceCtx::new(config);
        let _: Result<(), _> = ctx.call(Head::Codegen, |_| Err(transient()));
        assert_eq!(ctx.breaker_state(Head::Codegen), BreakerState::Open);
        let out: Result<(), _> = ctx.call(Head::Codegen, |_| Ok(()));
        assert!(matches!(out, Err(AllHandsError::BreakerOpen { .. })));
        assert_eq!(ctx.breaker_state(Head::Codegen), BreakerState::HalfOpen);
        // Probe fails → straight back to open, with a second trip recorded,
        // and the cooldown restarts from zero.
        let out: Result<(), _> = ctx.call(Head::Codegen, |_| Err(transient()));
        assert!(matches!(out, Err(AllHandsError::RetriesExhausted { .. })));
        assert_eq!(ctx.breaker_state(Head::Codegen), BreakerState::Open);
        assert_eq!(ctx.breaker_trips(Head::Codegen), 2);
        let out: Result<(), _> = ctx.call(Head::Codegen, |_| Ok(()));
        assert!(matches!(out, Err(AllHandsError::BreakerOpen { .. })));
        assert_eq!(ctx.breaker_state(Head::Codegen), BreakerState::HalfOpen);
    }

    #[test]
    fn crash_point_panics_at_scheduled_index_only() {
        let mut config = ResilienceConfig::default();
        config.fault = config.fault.with_crash_at(2);
        let ctx = ResilienceCtx::new(config);
        ctx.crash_point("a");
        ctx.crash_point("b");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.crash_point("c");
        }))
        .expect_err("crash point 2 must panic");
        let crash = err.downcast_ref::<InjectedCrash>().expect("InjectedCrash payload");
        assert_eq!(crash.point, 2);
        assert_eq!(crash.name, "c");
        assert_eq!(ctx.crash_points_passed(), 3);
        // Without a schedule, points are free.
        let ctx = ResilienceCtx::new(ResilienceConfig::default());
        for _ in 0..10 {
            ctx.crash_point("x");
        }
        assert_eq!(ctx.crash_points_passed(), 10);
    }

    #[test]
    fn check_poison_panics_only_on_marker() {
        let config =
            ResilienceConfig { poison_marker: Some("__POISON__"), ..Default::default() };
        let ctx = ResilienceCtx::new(config);
        ctx.check_poison("a perfectly fine review");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.check_poison("bad __POISON__ doc");
        }))
        .expect_err("marker must panic");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("poison pill"), "got: {msg}");
    }

    #[test]
    fn snapshot_restore_resumes_fault_schedule_exactly() {
        let config = ResilienceConfig::chaos(11, 0.4);
        // Uninterrupted reference: 60 calls.
        let reference = {
            let ctx = ResilienceCtx::new(config);
            (0..60).map(|i| ctx.call(Head::Classify, |_| Ok(i)).is_ok()).collect::<Vec<_>>()
        };
        // Run 30 calls, snapshot, restore into a *fresh* ctx, run the rest.
        let ctx = ResilienceCtx::new(config);
        let mut outcomes: Vec<bool> =
            (0..30).map(|i| ctx.call(Head::Classify, |_| Ok(i)).is_ok()).collect();
        ctx.note_degradation("classification", "fallback engaged");
        ctx.record_quarantine("classification", "doc-7", "poison pill");
        let snap = ctx.snapshot();
        let resumed = ResilienceCtx::new(config);
        resumed.restore(&snap);
        outcomes.extend((30..60).map(|i| resumed.call(Head::Classify, |_| Ok(i)).is_ok()));
        assert_eq!(outcomes, reference, "restored ctx must stay on the fault schedule");
        assert!(resumed.stats().attempts >= 60, "snapshot stats must carry forward");
        assert_eq!(resumed.degradations().len(), 1);
        assert_eq!(resumed.quarantined().len(), 1);
        assert!(resumed.degraded());
    }

    #[test]
    fn degradations_are_recorded_in_order() {
        let ctx = ResilienceCtx::new(ResilienceConfig::chaos(7, 0.3));
        assert!(ctx.config().enabled);
        ctx.note_degradation("classification", "fell back to lexical prior");
        ctx.note_degradation("qa-agent", "partial answer");
        let notes = ctx.degradations();
        assert_eq!(notes.len(), 2);
        assert_eq!(notes[0].stage, "classification");
        assert!(notes[1].note.contains("partial"));
    }
}
