//! Seeded fault injection.
//!
//! Faults are decided the same way the simulated LLM decides label slips:
//! by hashing (seed, namespace, call index) — see `ModelSpec::slips`. No
//! mutable RNG state is consumed, so whether call #17 on the classify head
//! times out is a pure function of the plan's seed, regardless of what any
//! other component did in between. Seed ⇒ bit-exact fault sequences.

use crate::breaker::Head;
use allhands_embed::{hash64, mix64};
use allhands_llm::LlmErrorKind;

/// The fault kinds a [`FaultPlan`] can schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The request never returns; surfaces as [`LlmErrorKind::Timeout`].
    Timeout,
    /// Provider-side throttling; surfaces as [`LlmErrorKind::RateLimited`].
    RateLimit,
    /// Completion cut off mid-output; surfaces as [`LlmErrorKind::Truncated`].
    Truncated,
    /// Completion garbled into something no parser accepts; surfaces as
    /// [`LlmErrorKind::Malformed`].
    Malformed,
    /// Completion came back empty; surfaces as [`LlmErrorKind::Empty`].
    Empty,
    /// Process death at a pipeline crash point. Unlike the transient kinds
    /// this never surfaces as an error value: the run *aborts* (an
    /// [`InjectedCrash`] panic unwinds out of the pipeline), and the
    /// crash-chaos suite proves the journal makes the abort recoverable.
    /// Scheduled by [`FaultPlan::crash_at`], not by the probabilistic rates.
    Crash,
}

impl FaultKind {
    /// The transient kinds, i.e. everything the probabilistic schedule can
    /// fire on an LLM call. [`FaultKind::Crash`] is deliberately excluded:
    /// crashes kill the process at seeded crash points instead of failing a
    /// single call.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::Timeout,
        FaultKind::RateLimit,
        FaultKind::Truncated,
        FaultKind::Malformed,
        FaultKind::Empty,
    ];

    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Timeout => "timeout",
            FaultKind::RateLimit => "rate-limit",
            FaultKind::Truncated => "truncated",
            FaultKind::Malformed => "malformed",
            FaultKind::Empty => "empty",
            FaultKind::Crash => "crash",
        }
    }

    /// The error kind a fault surfaces as: [`ResilienceCtx::call`] turns an
    /// injected fault into this error in place of running the attempt.
    ///
    /// [`ResilienceCtx::call`]: crate::ResilienceCtx::call
    pub fn error_kind(self) -> LlmErrorKind {
        match self {
            FaultKind::Timeout => LlmErrorKind::Timeout,
            FaultKind::RateLimit => LlmErrorKind::RateLimited,
            FaultKind::Truncated => LlmErrorKind::Truncated,
            FaultKind::Malformed => LlmErrorKind::Malformed,
            FaultKind::Empty => LlmErrorKind::Empty,
            // Crash faults abort the run via panic at a crash point; the
            // schedule never routes them through an LLM-call error.
            FaultKind::Crash => unreachable!("crash faults never surface as call errors"),
        }
    }
}

/// The panic payload thrown at a seeded crash point — the simulated
/// process death ([`FaultKind::Crash`]). The crash-chaos suite catches it
/// with `catch_unwind` (standing in for a real kill) and then resumes the
/// run from its journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedCrash {
    /// Which crash point fired (0-based, in pass order).
    pub point: u64,
    /// The crash point's name, e.g. `"stage1:committed"`.
    pub name: String,
}

impl std::fmt::Display for InjectedCrash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected crash at point #{} ({})", self.point, self.name)
    }
}

/// A deterministic fault schedule: per-kind rates plus the seed that decides
/// which call indices each kind fires on.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    pub seed: u64,
    /// Per-kind fault probabilities, indexed by `FaultKind::ALL` order.
    pub rates: [f64; 5],
    /// Crash schedule: abort the run (an [`InjectedCrash`] panic) when the
    /// pipeline passes crash point number `crash_at`. `None` disables crash
    /// injection. Deliberately exhaustive rather than probabilistic: the
    /// crash-chaos suite enumerates every point.
    pub crash_at: Option<u64>,
}

impl FaultPlan {
    /// No faults at all.
    pub fn none() -> Self {
        FaultPlan { seed: 0, rates: [0.0; 5], crash_at: None }
    }

    /// A plan firing all five transient kinds with equal shares of
    /// `total_rate` (e.g. `uniform(7, 0.30)` ⇒ each call faults with
    /// probability 0.30, split evenly across the five kinds).
    pub fn uniform(seed: u64, total_rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&total_rate), "fault rate out of range");
        FaultPlan { seed, rates: [total_rate / 5.0; 5], crash_at: None }
    }

    /// This plan, additionally aborting the run at crash point `point`.
    pub fn with_crash_at(mut self, point: u64) -> Self {
        self.crash_at = Some(point);
        self
    }

    /// Total probability that any fault fires on a given call.
    pub fn total_rate(&self) -> f64 {
        self.rates.iter().sum()
    }

    /// Decide whether (and which) fault fires for call `call_index` on
    /// `head`. One uniform draw per call, partitioned by cumulative rates,
    /// so kinds are mutually exclusive per call.
    pub fn decide(&self, head: Head, call_index: u64) -> Option<FaultKind> {
        if self.total_rate() <= 0.0 {
            return None;
        }
        let ns = hash64("fault-plan") ^ hash64(head.label());
        let h = mix64(ns ^ call_index.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.seed.wrapping_mul(0x9E37_79B9));
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let mut cumulative = 0.0;
        for (kind, rate) in FaultKind::ALL.iter().zip(self.rates) {
            cumulative += rate;
            if u < cumulative {
                return Some(*kind);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_and_rate_accurate() {
        let plan = FaultPlan::uniform(42, 0.3);
        let a: Vec<_> = (0..200).map(|i| plan.decide(Head::Classify, i)).collect();
        let b: Vec<_> = (0..200).map(|i| plan.decide(Head::Classify, i)).collect();
        assert_eq!(a, b, "same seed must give identical fault sequences");
        let fired = (0..20_000).filter(|&i| plan.decide(Head::Codegen, i).is_some()).count();
        let rate = fired as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "empirical fault rate {rate}");
        assert!(FaultPlan::none().decide(Head::Classify, 7).is_none());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::uniform(1, 0.3);
        let b = FaultPlan::uniform(2, 0.3);
        let seq_a: Vec<_> = (0..300).map(|i| a.decide(Head::Summarize, i)).collect();
        let seq_b: Vec<_> = (0..300).map(|i| b.decide(Head::Summarize, i)).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn all_kinds_eventually_fire() {
        let plan = FaultPlan::uniform(9, 0.5);
        let mut seen = std::collections::HashSet::new();
        for i in 0..2_000 {
            if let Some(k) = plan.decide(Head::Classify, i) {
                seen.insert(k);
            }
        }
        assert_eq!(seen.len(), FaultKind::ALL.len(), "kinds seen: {seen:?}");
    }
}
