//! EASY backfill with fair-share queue ordering.
//!
//! Identical backfill machinery to [`crate::easy::EasyBackfill`], but the
//! queue is re-ranked before every decision round by the decayed-usage
//! priorities of [`crate::fairshare::FairShare`]: projects that consumed
//! heavily in the recent past sink behind lighter ones, while accumulated
//! wait time floats everyone back up (no starvation).
//!
//! Usage is charged on completion — `cores × wall-clock` — which is what a
//! production fair-share implementation sees from its accounting feed.

use crate::easy::easy_pass_unindexed;
use crate::fairshare::FairShare;
use crate::queue::{BatchScheduler, QueuedJob, RunningSet, Started};
use std::collections::VecDeque;
use tg_des::{SimDuration, SimTime};
use tg_model::Cluster;
use tg_workload::{IdMap, JobId};

/// EASY backfill over a fair-share-ordered queue.
#[derive(Debug)]
pub struct FairshareEasy {
    queue: VecDeque<QueuedJob>,
    running: RunningSet,
    /// `id → (cores, start, project)` for usage charging at completion.
    charge_info: IdMap<JobId, (usize, SimTime, tg_workload::ProjectId)>,
    shares: FairShare,
    backfilled: u64,
}

impl FairshareEasy {
    /// A fair-share EASY scheduler with the given usage-decay half-life.
    pub fn new(half_life: SimDuration) -> Self {
        FairshareEasy {
            queue: VecDeque::new(),
            running: RunningSet::new(),
            charge_info: IdMap::default(),
            shares: FairShare::new(half_life),
            backfilled: 0,
        }
    }

    /// Read access to the underlying fair-share state (reports, tests).
    pub fn shares(&self) -> &FairShare {
        &self.shares
    }

    fn rerank(&mut self, now: SimTime) {
        let shares = &self.shares;
        let mut jobs: Vec<QueuedJob> = self.queue.drain(..).collect();
        // Stable sort: equal priorities keep FIFO order.
        jobs.sort_by(|a, b| {
            let pa = shares.priority(a.project, a.submit_time, now);
            let pb = shares.priority(b.project, b.submit_time, now);
            pb.partial_cmp(&pa).expect("priorities are finite")
        });
        self.queue = jobs.into();
    }
}

impl BatchScheduler for FairshareEasy {
    fn name(&self) -> &'static str {
        "fairshare-easy"
    }

    fn submit(&mut self, _now: SimTime, job: QueuedJob) {
        self.queue.push_back(job);
    }

    fn on_complete(&mut self, now: SimTime, id: JobId) {
        self.running.remove(id);
        if let Some((cores, start, project)) = self.charge_info.remove(&id) {
            let wall = now.saturating_since(start).as_secs_f64();
            self.shares.charge(project, now, cores as f64 * wall);
        }
    }

    fn make_decisions(
        &mut self,
        now: SimTime,
        cluster: &mut Cluster,
        core_speed: f64,
        started: &mut Vec<Started>,
    ) {
        self.rerank(now);
        let before = started.len();
        easy_pass_unindexed(
            &mut self.queue,
            &mut self.running,
            now,
            cluster,
            core_speed,
            started,
            &mut self.backfilled,
        );
        for s in &started[before..] {
            self.charge_info
                .insert(s.job.id, (s.job.cores, now, s.job.project));
        }
    }

    fn queue_len(&self) -> usize {
        self.queue.len()
    }

    fn backfills(&self) -> u64 {
        self.backfilled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::decide;
    use tg_workload::{Job, ProjectId, UserId};

    fn job(id: usize, project: usize, cores: usize, secs: u64, submit: u64) -> QueuedJob {
        QueuedJob::from(&Job::batch(
            JobId(id),
            UserId(id),
            ProjectId(project),
            SimTime::from_secs(submit),
            cores,
            SimDuration::from_secs(secs),
        ))
    }

    fn sched() -> FairshareEasy {
        FairshareEasy::new(SimDuration::from_days(7))
    }

    #[test]
    fn behaves_like_easy_with_no_usage_history() {
        let mut s = sched();
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, job(0, 0, 6, 100, 0));
        s.submit(SimTime::ZERO, job(1, 1, 4, 100, 0));
        let started = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        assert_eq!(started.len(), 2, "both fit; no history → FIFO");
        assert_eq!(started[0].job.id, JobId(0));
    }

    #[test]
    fn heavy_project_sinks_behind_light_project() {
        let mut s = sched();
        let mut c = Cluster::new(SimTime::ZERO, 10);
        // Project 0 burns the machine for a while.
        s.submit(SimTime::ZERO, job(0, 0, 10, 50_000, 0));
        let st = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        assert_eq!(st.len(), 1);
        let t1 = SimTime::from_secs(50_000);
        c.release(t1, 10);
        s.on_complete(t1, JobId(0)); // charges 500k core-seconds to project 0
                                     // Now project 0 submits first, project 1 second; both need the
                                     // whole machine. Fair share puts project 1 ahead.
        s.submit(t1, job(1, 0, 10, 100, 50_000));
        s.submit(t1, job(2, 1, 10, 100, 50_000));
        let started = decide(&mut s, t1, &mut c, 1.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job.id, JobId(2), "light project overtakes");
        assert_eq!(s.queue_len(), 1);
    }

    #[test]
    fn long_waits_eventually_beat_usage_penalty() {
        let mut s = sched();
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, job(0, 0, 10, 1000, 0));
        let st = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        let t1 = SimTime::from_secs(1000);
        c.release(t1, 10);
        s.on_complete(t1, st[0].job.id);
        // Project 0's next job has waited two days; project 1's arrives now.
        let t2 = SimTime::from_secs(1000 + 2 * 86_400);
        s.submit(t1, job(1, 0, 10, 100, 1000));
        s.submit(t2, job(2, 1, 10, 100, 1000 + 2 * 86_400));
        let started = decide(&mut s, t2, &mut c, 1.0);
        assert_eq!(
            started[0].job.id,
            JobId(1),
            "48 h of waiting outweighs the usage penalty"
        );
    }

    #[test]
    fn charges_accrue_only_for_completed_work() {
        let mut s = sched();
        let mut c = Cluster::new(SimTime::ZERO, 8);
        s.submit(SimTime::ZERO, job(0, 3, 4, 600, 0));
        decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        assert_eq!(s.shares().usage_of(ProjectId(3), SimTime::ZERO), 0.0);
        let t = SimTime::from_secs(600);
        c.release(t, 4);
        s.on_complete(t, JobId(0));
        let usage = s.shares().usage_of(ProjectId(3), t);
        assert!((usage - 2400.0).abs() < 1e-6, "4 cores × 600 s = {usage}");
    }

    #[test]
    fn backfill_still_works_under_reranking() {
        let mut s = sched();
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, job(0, 0, 6, 1000, 0));
        decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        s.submit(SimTime::ZERO, job(1, 1, 8, 100, 0)); // blocked head
        s.submit(SimTime::ZERO, job(2, 2, 4, 500, 0)); // backfills
        let started = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job.id, JobId(2));
    }
}
