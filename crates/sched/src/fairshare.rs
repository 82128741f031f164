//! Decayed-usage fair-share priorities.
//!
//! Sites weight queue order by how much a project has consumed recently:
//! heavy recent consumers sink, light ones float. The standard construction
//! is an exponentially decayed usage integral with half-life `H`:
//!
//! `usage(t) = usage(t0) · 2^-((t - t0)/H) + charge`
//!
//! Priority combines normalized decayed usage with queue wait time. The
//! module is self-contained so any scheduler (or the metascheduler) can
//! consult it; the fair-share queue order of
//! [`crate::batch::QueueScheduler`] ranks its queue by it.

use std::collections::HashMap;
use tg_des::{SimDuration, SimTime};
use tg_workload::ProjectId;

/// Tracks decayed usage per project.
#[derive(Debug, Clone)]
pub struct FairShare {
    half_life: SimDuration,
    /// Per-project (decayed usage, last update time).
    usage: HashMap<ProjectId, (f64, SimTime)>,
}

impl FairShare {
    /// A tracker with the given decay half-life (typically 1–2 weeks).
    pub fn new(half_life: SimDuration) -> Self {
        assert!(!half_life.is_zero(), "half-life must be positive");
        FairShare {
            half_life,
            usage: HashMap::new(),
        }
    }

    fn decayed(&self, project: ProjectId, now: SimTime) -> f64 {
        match self.usage.get(&project) {
            None => 0.0,
            Some(&(u, at)) => {
                let dt = now.saturating_since(at).as_secs_f64();
                let hl = self.half_life.as_secs_f64();
                u * (0.5f64).powf(dt / hl)
            }
        }
    }

    /// Charge `core_seconds` of usage to `project` at `now`.
    pub fn charge(&mut self, project: ProjectId, now: SimTime, core_seconds: f64) {
        assert!(core_seconds >= 0.0, "negative charge");
        let u = self.decayed(project, now) + core_seconds;
        self.usage.insert(project, (u, now));
    }

    /// Current decayed usage of `project`.
    pub fn usage_of(&self, project: ProjectId, now: SimTime) -> f64 {
        self.decayed(project, now)
    }

    /// Priority of a job from `project` queued since `queued_at`: higher is
    /// better. Wait time raises priority linearly (hours); decayed usage
    /// (normalized against the busiest project) lowers it.
    pub fn priority(&self, project: ProjectId, queued_at: SimTime, now: SimTime) -> f64 {
        self.ranking(now).priority(project, queued_at)
    }

    /// Priorities as of `now`, with the busiest project's usage folded once:
    /// ranking a queue then costs one fold plus one lookup per job instead
    /// of a fold per comparison, with bit-identical keys.
    pub(crate) fn ranking(&self, now: SimTime) -> Ranking<'_> {
        let max_usage = self
            .usage
            .keys()
            .map(|&p| self.decayed(p, now))
            .fold(0.0f64, f64::max);
        Ranking {
            shares: self,
            now,
            max_usage,
        }
    }
}

/// [`FairShare`] priorities frozen at one instant (see
/// [`FairShare::ranking`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ranking<'a> {
    shares: &'a FairShare,
    now: SimTime,
    max_usage: f64,
}

impl Ranking<'_> {
    /// [`FairShare::priority`] at the ranking's instant.
    pub(crate) fn priority(&self, project: ProjectId, queued_at: SimTime) -> f64 {
        let wait_hours = self.now.saturating_since(queued_at).as_hours_f64();
        let norm = if self.max_usage > 0.0 {
            self.shares.decayed(project, self.now) / self.max_usage
        } else {
            0.0
        };
        wait_hours - norm * 24.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DAY: u64 = 86_400;

    #[test]
    fn usage_decays_with_half_life() {
        let mut fs = FairShare::new(SimDuration::from_days(7));
        fs.charge(ProjectId(0), SimTime::ZERO, 1000.0);
        assert!((fs.usage_of(ProjectId(0), SimTime::ZERO) - 1000.0).abs() < 1e-9);
        let week = SimTime::from_secs(7 * DAY);
        assert!((fs.usage_of(ProjectId(0), week) - 500.0).abs() < 1e-6);
        let two_weeks = SimTime::from_secs(14 * DAY);
        assert!((fs.usage_of(ProjectId(0), two_weeks) - 250.0).abs() < 1e-6);
    }

    #[test]
    fn charges_accumulate_with_decay() {
        let mut fs = FairShare::new(SimDuration::from_days(7));
        fs.charge(ProjectId(0), SimTime::ZERO, 1000.0);
        fs.charge(ProjectId(0), SimTime::from_secs(7 * DAY), 1000.0);
        // 500 decayed remainder + 1000 fresh.
        let u = fs.usage_of(ProjectId(0), SimTime::from_secs(7 * DAY));
        assert!((u - 1500.0).abs() < 1e-6);
    }

    #[test]
    fn unknown_project_has_zero_usage() {
        let fs = FairShare::new(SimDuration::from_days(7));
        assert_eq!(fs.usage_of(ProjectId(9), SimTime::from_secs(100)), 0.0);
    }

    #[test]
    fn heavy_user_gets_lower_priority_than_light_user() {
        let mut fs = FairShare::new(SimDuration::from_days(7));
        fs.charge(ProjectId(0), SimTime::ZERO, 1_000_000.0);
        fs.charge(ProjectId(1), SimTime::ZERO, 1_000.0);
        let now = SimTime::from_secs(DAY);
        let queued = SimTime::from_secs(DAY - 3600);
        let p_heavy = fs.priority(ProjectId(0), queued, now);
        let p_light = fs.priority(ProjectId(1), queued, now);
        assert!(p_light > p_heavy);
    }

    #[test]
    fn waiting_raises_priority_past_usage_penalty() {
        let mut fs = FairShare::new(SimDuration::from_days(7));
        fs.charge(ProjectId(0), SimTime::ZERO, 1_000_000.0);
        fs.charge(ProjectId(1), SimTime::ZERO, 1.0);
        let now = SimTime::from_secs(10 * DAY);
        // Heavy project queued 5 days ago vs light project queued just now.
        let p_heavy_waiting = fs.priority(ProjectId(0), SimTime::from_secs(5 * DAY), now);
        let p_light_fresh = fs.priority(ProjectId(1), now, now);
        assert!(
            p_heavy_waiting > p_light_fresh,
            "long waits must eventually dominate"
        );
    }

    #[test]
    fn priority_with_no_usage_history_is_wait_only() {
        let fs = FairShare::new(SimDuration::from_days(7));
        let p = fs.priority(ProjectId(0), SimTime::ZERO, SimTime::from_secs(7200));
        assert!((p - 2.0).abs() < 1e-9, "2 hours waited → priority 2");
    }
}
