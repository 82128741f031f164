//! Requeue-on-failure bookkeeping: bounded retries with exponential backoff.
//!
//! When fault injection kills a running job (node crash, site outage), the
//! driver consults a [`RetryPolicy`] to decide whether to resubmit it — and
//! after how long — or abandon it. The policy is pure arithmetic; the
//! [`RetryBook`] tracks per-job failure counts across attempts.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use tg_des::SimDuration;
use tg_workload::JobId;

/// Bounded-retry policy with exponential backoff.
///
/// A killed job is resubmitted after `backoff_base_s · backoff_factor^(n−1)`
/// seconds (capped at `backoff_cap_s`), where `n` is its failure count; after
/// `max_retries` failures it is abandoned. All four fields are required when
/// a JSON fault spec overrides the policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RetryPolicy {
    /// Failures tolerated before the job is abandoned.
    pub max_retries: u32,
    /// Backoff before the first resubmission, seconds.
    pub backoff_base_s: f64,
    /// Multiplier applied per additional failure (≥ 1 is sensible).
    pub backoff_factor: f64,
    /// Upper bound on any single backoff, seconds.
    pub backoff_cap_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base_s: 60.0,
            backoff_factor: 2.0,
            backoff_cap_s: 3600.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based; 0 is treated as 1).
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let exp = attempt.max(1) - 1;
        // powi saturates fine for our range; cap the exponent so a pathological
        // spec can't produce inf·0-style surprises.
        let secs = self.backoff_base_s * self.backoff_factor.powi(exp.min(64) as i32);
        SimDuration::from_secs_f64(secs.min(self.backoff_cap_s).max(0.0))
    }

    /// Has `attempt` failures exhausted the policy?
    pub fn exhausted(&self, attempts: u32) -> bool {
        attempts > self.max_retries
    }
}

/// Per-job failure counts across fault-induced resubmissions.
#[derive(Debug, Clone, Default)]
pub struct RetryBook {
    attempts: HashMap<JobId, u32>,
}

impl RetryBook {
    /// An empty book.
    pub fn new() -> Self {
        RetryBook::default()
    }

    /// Record one more failure for `job`, returning the updated count.
    pub fn record(&mut self, job: JobId) -> u32 {
        let n = self.attempts.entry(job).or_insert(0);
        *n += 1;
        *n
    }

    /// Failures recorded so far for `job`.
    pub fn attempts(&self, job: JobId) -> u32 {
        self.attempts.get(&job).copied().unwrap_or(0)
    }

    /// Drop bookkeeping for `job` (completed or abandoned).
    pub fn forget(&mut self, job: JobId) {
        self.attempts.remove(&job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(1), SimDuration::from_secs(60));
        assert_eq!(p.backoff(2), SimDuration::from_secs(120));
        assert_eq!(p.backoff(3), SimDuration::from_secs(240));
        assert_eq!(p.backoff(30), SimDuration::from_secs(3600), "capped");
        assert_eq!(p.backoff(0), p.backoff(1), "0 treated as first attempt");
    }

    #[test]
    fn exhaustion_is_strictly_beyond_max_retries() {
        let p = RetryPolicy::default();
        assert!(!p.exhausted(3));
        assert!(p.exhausted(4));
    }

    #[test]
    fn book_counts_and_forgets() {
        let mut b = RetryBook::new();
        assert_eq!(b.attempts(JobId(7)), 0);
        assert_eq!(b.record(JobId(7)), 1);
        assert_eq!(b.record(JobId(7)), 2);
        assert_eq!(b.attempts(JobId(7)), 2);
        b.forget(JobId(7));
        assert_eq!(b.attempts(JobId(7)), 0);
    }

    #[test]
    fn policy_serde_roundtrip() {
        let p = RetryPolicy {
            max_retries: 5,
            backoff_base_s: 30.0,
            backoff_factor: 3.0,
            backoff_cap_s: 600.0,
        };
        let json = serde_json::to_string(&p).unwrap();
        let back: RetryPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
