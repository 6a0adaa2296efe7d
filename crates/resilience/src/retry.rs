//! Retry with exponential backoff and deterministic jitter.
//!
//! Backoff delays are *virtual*: they are computed and recorded but never
//! slept, because the substrate is a simulation — what matters for the
//! paper-style experiments is that the schedule is reproducible and
//! inspectable, not that wall clock actually elapses. Jitter comes from
//! hashing (seed, head, attempt), the same scheme the fault planner uses,
//! so two runs with the same seed produce identical backoff traces.

use crate::breaker::Head;
use allhands_embed::{hash64, mix64};

/// Retry tuning for one head.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum attempts per operation (1 = no retries).
    pub max_attempts: u32,
    /// First backoff delay, in virtual milliseconds.
    pub base_delay_ms: u64,
    /// Cap on any single backoff delay.
    pub max_delay_ms: u64,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a deterministic
    /// factor drawn from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Seed for the jitter hash (shared with the fault plan in chaos runs).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3, base_delay_ms: 100, max_delay_ms: 2000, jitter: 0.25, seed: 0 }
    }
}

impl RetryPolicy {
    /// The virtual backoff delay before retry attempt `attempt` (the first
    /// retry is attempt 2). Exponential in the attempt number, capped at
    /// `max_delay_ms`, scaled by deterministic jitter.
    pub fn backoff_ms(&self, head: Head, attempt: u32) -> u64 {
        debug_assert!(attempt >= 2, "attempt 1 is the initial try, not a retry");
        let exp = attempt.saturating_sub(2).min(20);
        let raw = self.base_delay_ms.saturating_mul(1u64 << exp).min(self.max_delay_ms);
        if self.jitter <= 0.0 {
            return raw;
        }
        let ns = hash64("retry-jitter") ^ hash64(head.label());
        let h = mix64(
            ns ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ self.seed.wrapping_mul(0x9E37_79B9),
        );
        let u = (h >> 11) as f64 / (1u64 << 53) as f64; // in [0, 1)
        let factor = 1.0 - self.jitter + 2.0 * self.jitter * u;
        ((raw as f64) * factor).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy { jitter: 0.0, ..RetryPolicy::default() };
        assert_eq!(p.backoff_ms(Head::Classify, 2), 100);
        assert_eq!(p.backoff_ms(Head::Classify, 3), 200);
        assert_eq!(p.backoff_ms(Head::Classify, 4), 400);
        assert_eq!(p.backoff_ms(Head::Classify, 8), 2000, "capped at max_delay_ms");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy { seed: 42, ..RetryPolicy::default() };
        for attempt in 2..8 {
            let a = p.backoff_ms(Head::Codegen, attempt);
            let b = p.backoff_ms(Head::Codegen, attempt);
            assert_eq!(a, b, "same (seed, head, attempt) must give the same delay");
            let raw = p.base_delay_ms * (1u64 << (attempt - 2)).min(p.max_delay_ms / p.base_delay_ms);
            let raw = raw.min(p.max_delay_ms) as f64;
            assert!((a as f64) >= raw * 0.74 && (a as f64) <= raw * 1.26, "delay {a} outside jitter band of {raw}");
        }
        let other = RetryPolicy { seed: 43, ..RetryPolicy::default() };
        let same: Vec<u64> = (2..10).map(|n| p.backoff_ms(Head::Summarize, n)).collect();
        let diff: Vec<u64> = (2..10).map(|n| other.backoff_ms(Head::Summarize, n)).collect();
        assert_ne!(same, diff, "different seeds should jitter differently");
    }
}
