//! The weekly-drain capability policy.
//!
//! Large "hero" jobs (full-machine or near-full-machine runs) are
//! irreconcilable with high utilization under on-demand scheduling: the
//! scheduler must idle the whole machine to assemble enough cores, and the
//! idle ramp is pure waste. The policy modeled here — adopted in production
//! on TeraGrid-era capability systems — forces the clear-out onto a fixed
//! **weekly boundary** instead:
//!
//! * While hero jobs are pending, normal jobs keep starting as long as their
//!   *estimated* completion fits before the upcoming drain instant (a
//!   full-machine reservation, in effect). Because generated estimates are
//!   upper bounds on true runtimes, the machine is provably empty at the
//!   drain instant.
//! * At the drain instant the queued hero jobs run **consecutively**
//!   (back-to-back full-machine runs).
//! * When the hero queue empties, normal EASY scheduling resumes.
//!
//! With no hero jobs pending, the policy is exactly EASY: the wrapper
//! owns only the hero queue and the drain clock, and drives one EASY
//! [`QueueScheduler`] for everything else.

use crate::batch::{Depth, QueueScheduler};
use crate::queue::{BatchScheduler, QueuedJob, Started};
use std::collections::VecDeque;
use tg_des::span::WaitCause;
use tg_des::{SimDuration, SimTime};
use tg_model::Cluster;

/// Fraction of machine cores at which a job counts as a hero run.
pub const DEFAULT_HERO_FRACTION: f64 = 0.9;

/// Weekly-drain scheduler: a hero queue and a drain clock around one EASY
/// core.
#[derive(Debug)]
pub struct WeeklyDrain {
    /// The EASY core: queues normal jobs, and runs every job, heroes too.
    core: QueueScheduler,
    heroes: VecDeque<QueuedJob>,
    period: SimDuration,
    hero_threshold: usize,
    /// The active drain instant, set while hero jobs are pending.
    active_drain: Option<SimTime>,
    /// Whether normal jobs may keep starting (estimate-bounded) before the
    /// drain wall. Disabling this models a naive "stop everything" drain —
    /// the A2 ablation's baseline.
    predrain_fill: bool,
    /// Completed drain phases — counted when the hero queue empties and the
    /// drain disarms (observability).
    drains_done: u64,
    /// When the most recent drain disarmed — jobs that waited across it get
    /// their wait attributed to the drain window (observability).
    last_disarm: Option<SimTime>,
}

impl WeeklyDrain {
    /// A drain scheduler over an EASY normal phase. `period` is the drain
    /// cadence; `machine_cores` sizes the hero threshold at
    /// [`DEFAULT_HERO_FRACTION`].
    pub fn new(period: SimDuration, machine_cores: usize) -> Self {
        assert!(!period.is_zero(), "drain period must be positive");
        assert!(machine_cores > 0, "machine must have cores");
        WeeklyDrain {
            core: QueueScheduler::new(Depth::One),
            heroes: VecDeque::new(),
            period,
            hero_threshold: ((machine_cores as f64) * DEFAULT_HERO_FRACTION).ceil() as usize,
            active_drain: None,
            predrain_fill: true,
            drains_done: 0,
            last_disarm: None,
        }
    }

    /// Enable/disable estimate-bounded filling before the drain wall
    /// (enabled by default; disabling gives the naive stop-the-world drain).
    pub fn with_predrain_fill(mut self, fill: bool) -> Self {
        self.predrain_fill = fill;
        self
    }

    /// The drain instant currently armed, if any.
    pub fn active_drain(&self) -> Option<SimTime> {
        self.active_drain
    }

    /// Next period boundary strictly after `now`.
    fn next_boundary(&self, now: SimTime) -> SimTime {
        let idx = now.as_micros() / self.period.as_micros();
        SimTime::from_micros((idx + 1) * self.period.as_micros())
    }
}

impl BatchScheduler for WeeklyDrain {
    fn submit(&mut self, now: SimTime, job: QueuedJob) {
        if job.cores >= self.hero_threshold {
            self.heroes.push_back(job);
            if self.active_drain.is_none() {
                self.active_drain = Some(self.next_boundary(now));
            }
        } else {
            self.core.submit(now, job);
        }
    }

    fn on_complete(&mut self, now: SimTime, done: &Started) {
        self.core.on_complete(now, done);
    }

    fn make_decisions(
        &mut self,
        now: SimTime,
        cluster: &mut Cluster,
        core_speed: f64,
        started: &mut Vec<Started>,
    ) {
        loop {
            match self.active_drain {
                None => {
                    let before = started.len();
                    self.core.easy_pass(now, cluster, core_speed, started);
                    // Normal jobs held back across the drain wall waited for
                    // the drain, not for queue position: re-attribute starts
                    // of jobs submitted before the last disarm.
                    if let Some(disarm) = self.last_disarm {
                        for s in &mut started[before..] {
                            if s.cause != WaitCause::Immediate && s.job.submit_time < disarm {
                                s.cause = WaitCause::DrainWindow;
                            }
                        }
                    }
                    return;
                }
                Some(drain) if now < drain => {
                    // Pre-drain: greedily start normal jobs that fit and
                    // finish (by estimate) before the wall. Any wait these
                    // jobs saw happened under the armed drain's
                    // estimate-bounded fill regime. The naive drain starts
                    // nothing.
                    if self.predrain_fill {
                        self.core
                            .drain_pass(now, cluster, core_speed, drain, started);
                    }
                    return;
                }
                Some(_) => {
                    // Drain reached: run heroes back-to-back while the
                    // machine can hold them.
                    while let Some(hero) = self.heroes.front() {
                        if !cluster.can_fit(hero.cores) {
                            break;
                        }
                        let job = self.heroes.pop_front().expect("peeked");
                        // Heroes wait for the drain boundary by design.
                        self.core.start(
                            now,
                            cluster,
                            core_speed,
                            job,
                            WaitCause::DrainWindow,
                            started,
                        );
                    }
                    if !self.heroes.is_empty() {
                        return;
                    }
                    // Hero phase over (or will be once running heroes
                    // finish); disarm and resume normal scheduling.
                    self.active_drain = None;
                    self.drains_done += 1;
                    self.last_disarm = Some(now);
                }
            }
        }
    }

    fn queue_len(&self) -> usize {
        self.core.queue_len() + self.heroes.len()
    }

    fn next_wakeup(&self, now: SimTime) -> Option<SimTime> {
        match self.active_drain {
            Some(d) if d > now => Some(d),
            _ => None,
        }
    }

    fn backfills(&self) -> u64 {
        self.core.backfills()
    }

    fn drains(&self) -> u64 {
        self.drains_done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::decide;
    use tg_workload::{Job, JobId};

    fn sched(machine: usize) -> WeeklyDrain {
        WeeklyDrain::new(SimDuration::from_weeks(1), machine)
    }

    fn job(id: usize, cores: usize, secs: u64) -> QueuedJob {
        QueuedJob::from(&Job::batch(
            JobId(id),
            tg_workload::UserId(0),
            tg_workload::ProjectId(0),
            SimTime::ZERO,
            cores,
            SimDuration::from_secs(secs),
        ))
    }

    #[test]
    fn behaves_like_easy_without_heroes() {
        let mut s = sched(10);
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, job(0, 6, 100));
        s.submit(SimTime::ZERO, job(1, 4, 100));
        let started = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        assert_eq!(started.len(), 2);
        assert_eq!(s.active_drain(), None);
        assert_eq!(s.next_wakeup(SimTime::ZERO), None);
    }

    #[test]
    fn hero_submission_arms_the_next_boundary() {
        let mut s = sched(10);
        let t = SimTime::from_days(3);
        s.submit(t, job(0, 10, 3600));
        assert_eq!(s.active_drain(), Some(SimTime::from_days(7)));
        assert_eq!(s.heroes.len(), 1);
        assert_eq!(s.next_wakeup(t), Some(SimTime::from_days(7)));
    }

    #[test]
    fn hero_exactly_at_boundary_arms_following_week() {
        let mut s = sched(10);
        s.submit(SimTime::from_days(7), job(0, 10, 10));
        assert_eq!(s.active_drain(), Some(SimTime::from_days(14)));
    }

    #[test]
    fn pre_drain_blocks_jobs_crossing_the_wall() {
        let mut s = sched(10);
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, job(0, 10, 3600)); // hero → drain at day 7
                                                   // A job estimated to end before day 7 starts; one crossing it waits.
        let short = job(1, 4, 3600);
        let long = job(2, 4, 8 * 86_400);
        let t = SimTime::from_days(1);
        s.submit(t, short);
        s.submit(t, long);
        let started = decide(&mut s, t, &mut c, 1.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job.id, JobId(1));
        assert_eq!(s.queue_len(), 2, "long job + hero still queued");
    }

    #[test]
    fn heroes_run_consecutively_at_the_drain() {
        let mut s = sched(10);
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, job(0, 10, 3600));
        s.submit(SimTime::ZERO, job(1, 10, 3600));
        let d = SimTime::from_days(7);
        // Machine is empty at the drain (nothing was started).
        let started = decide(&mut s, d, &mut c, 1.0);
        assert_eq!(started.len(), 1, "one full-machine hero at a time");
        assert_eq!(started[0].job.id, JobId(0));
        assert_eq!(
            started[0].cause,
            WaitCause::DrainWindow,
            "heroes wait for the drain boundary"
        );
        assert_eq!(s.heroes.len(), 1);
        // First hero completes; second starts immediately.
        let t2 = d + SimDuration::from_secs(3600);
        c.release(t2, 10);
        s.on_complete(t2, &started[0]);
        let started = decide(&mut s, t2, &mut c, 1.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job.id, JobId(1));
        assert_eq!(s.active_drain(), None, "disarmed once hero queue empties");
        assert_eq!(s.drains(), 1, "one drain phase completed");
    }

    #[test]
    fn normal_scheduling_resumes_after_heroes() {
        let mut s = sched(10);
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, job(0, 10, 3600));
        let d = SimTime::from_days(7);
        let hero = decide(&mut s, d, &mut c, 1.0);
        let t2 = d + SimDuration::from_secs(3600);
        c.release(t2, 10);
        s.on_complete(t2, &hero[0]);
        decide(&mut s, t2, &mut c, 1.0);
        // Now a long normal job may start — no wall remains.
        s.submit(t2, job(1, 4, 30 * 86_400));
        let started = decide(&mut s, t2, &mut c, 1.0);
        assert_eq!(started.len(), 1);
    }

    #[test]
    fn post_drain_starts_of_jobs_that_waited_across_it_blame_the_drain() {
        let mut s = sched(10);
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, job(0, 10, 3600)); // hero → drain at day 7
                                                   // Submitted before the drain, crosses the wall → waits through it.
        s.submit(SimTime::from_secs(10), job(1, 4, 8 * 86_400));
        assert!(decide(&mut s, SimTime::from_secs(10), &mut c, 1.0).is_empty());
        let d = SimTime::from_days(7);
        let st = decide(&mut s, d, &mut c, 1.0);
        assert_eq!(st.len(), 1, "hero runs at the wall");
        let t2 = d + SimDuration::from_secs(3600);
        c.release(t2, 10);
        s.on_complete(t2, &st[0]);
        let st = decide(&mut s, t2, &mut c, 1.0);
        assert_eq!(st.len(), 1);
        assert_eq!(st[0].job.id, JobId(1));
        assert_eq!(
            st[0].cause,
            WaitCause::DrainWindow,
            "the wait spanned the drain, so the drain gets the blame"
        );
    }

    #[test]
    #[should_panic(expected = "a completion names a job this scheduler started")]
    fn completion_rejects_a_record_the_scheduler_never_emitted() {
        let mut s = sched(10);
        s.submit(SimTime::ZERO, job(0, 10, 3600)); // hero, queued for the drain
        let never_started = Started {
            job: job(0, 10, 3600),
            start: SimTime::ZERO,
            estimated_end: SimTime::from_secs(3600),
            cause: WaitCause::Immediate,
        };
        s.on_complete(SimTime::from_secs(3600), &never_started);
    }

    #[test]
    fn naive_drain_starts_nothing_pre_wall() {
        let mut s = sched(10).with_predrain_fill(false);
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, job(0, 10, 3600)); // hero
        s.submit(SimTime::ZERO, job(1, 2, 60)); // tiny, would fit before wall
        let started = decide(&mut s, SimTime::from_secs(10), &mut c, 1.0);
        assert!(started.is_empty(), "naive drain idles the machine");
        assert_eq!(s.queue_len(), 2);
    }

    #[test]
    fn drain_counter_stays_zero_without_heroes() {
        let mut s = sched(10);
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, job(0, 4, 100));
        decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        assert_eq!(s.drains(), 0);
        assert_eq!(s.backfills(), 0);
    }

    #[test]
    fn near_full_jobs_count_as_heroes() {
        let mut s = sched(100); // threshold = 90
        s.submit(SimTime::ZERO, job(0, 95, 60));
        assert_eq!(s.heroes.len(), 1);
        s.submit(SimTime::ZERO, job(1, 89, 60));
        assert_eq!(s.heroes.len(), 1, "89 < 90 is a normal job");
    }
}
