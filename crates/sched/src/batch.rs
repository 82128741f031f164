//! The batch scheduler family as one queue core.
//!
//! FCFS, EASY, conservative and fair-share EASY are one scheduler,
//! [`QueueScheduler`]: one indexed queue, one running set, and two
//! parameters. The reservation [`Depth`] picks the decision pass:
//!
//! * **zero** — strict first-come-first-served: the head starts as soon as
//!   it fits and nothing behind it may overtake;
//! * **one** — EASY backfill ([`crate::easy`]): the head loop, a
//!   reservation for the blocked head, then width-lane backfill;
//! * **unbounded** — conservative backfill ([`crate::conservative`]): an
//!   availability profile places every queued job at its earliest start
//!   that delays no earlier reservation.
//!
//! The queue order is arrival, or fair-share: the queue is then re-ranked
//! by [`FairShare`] priority at the start of every pass, so projects that
//! consumed heavily in the recent past sink behind lighter ones while
//! accumulated wait floats everyone back up. Usage is charged on completion
//! — `cores × wall-clock`, read off the [`Started`] record the driver hands
//! back — which is what a production fair-share implementation sees from
//! its accounting feed.
//!
//! The weekly-drain policy ([`crate::drain::WeeklyDrain`]) drives one EASY
//! core and adds only its hero queue and drain clock.

use crate::backfill_queue::BackfillQueue;
use crate::fairshare::FairShare;
use crate::queue::{
    attribute, estimated_runtime, BatchScheduler, QueuedJob, RunningJob, RunningSet, Started,
};
use tg_des::span::WaitCause;
use tg_des::{SimDuration, SimTime};
use tg_model::Cluster;

/// How many queued jobs hold a reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Depth {
    /// None: strict FCFS.
    Zero,
    /// One, for the blocked head: EASY backfill (Lifka 1995).
    One,
    /// One for every queued job: conservative backfill (Mu'alem &
    /// Feitelson 2001).
    Unbounded,
}

/// A per-site batch scheduler: FCFS, EASY or conservative backfill over an
/// arrival- or fair-share-ordered queue.
#[derive(Debug)]
pub struct QueueScheduler {
    pub(crate) queue: BackfillQueue,
    pub(crate) running: RunningSet,
    depth: Depth,
    /// Decayed project usage for a fair-share-ordered queue; `None` for
    /// arrival order.
    fair: Option<FairShare>,
    /// Jobs started out of queue order by EASY backfill.
    pub(crate) backfilled: u64,
    /// Armed outage notice: don't start work estimated to outlive this.
    outage: Option<SimTime>,
}

impl QueueScheduler {
    /// An empty scheduler over an arrival-ordered queue.
    pub fn new(depth: Depth) -> Self {
        QueueScheduler {
            queue: BackfillQueue::new(),
            running: RunningSet::new(),
            depth,
            fair: None,
            backfilled: 0,
            outage: None,
        }
    }

    /// EASY backfill over a fair-share-ordered queue with the given
    /// usage-decay half-life.
    pub fn fair_share(half_life: SimDuration) -> Self {
        QueueScheduler {
            fair: Some(FairShare::new(half_life)),
            ..QueueScheduler::new(Depth::One)
        }
    }

    /// Re-rank a fair-share queue: take every job out in its current order,
    /// stable-sort by priority (equal priorities keep their order) and stage
    /// them back. Each job's key is computed once, against one fold of the
    /// busiest project's usage.
    fn rerank(&mut self, now: SimTime) {
        let Some(fair) = &self.fair else {
            return;
        };
        let ranking = fair.ranking(now);
        let mut jobs: Vec<(f64, QueuedJob)> = self
            .queue
            .take_all()
            .map(|j| (ranking.priority(j.project, j.submit_time), j))
            .collect();
        jobs.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("priorities are finite"));
        for (_, job) in jobs {
            self.queue.push_back(job);
        }
    }

    /// Start queue heads in order while they fit and, under a `hold`
    /// horizon, are estimated to finish by it. Nothing overtakes a held
    /// head, so under strict FCFS the queue waits the drain out. A head that
    /// had to wait was blocked behind earlier work.
    pub(crate) fn head_pass(
        &mut self,
        now: SimTime,
        cluster: &mut Cluster,
        core_speed: f64,
        hold: Option<SimTime>,
        started: &mut Vec<Started>,
    ) {
        let startable = |cluster: &Cluster, job: &QueuedJob| {
            cluster.can_fit(job.cores)
                && hold.is_none_or(|h| now + estimated_runtime(job, core_speed) <= h)
        };
        // Idle index: the staged jobs are the queue's heads, in order. The
        // loop below would index each and pop it straight back out, so
        // start them here and index only what is left.
        if self.queue.is_indexed_empty() {
            while let Some(job) = self.queue.pop_staged_if(|j| startable(cluster, j)) {
                self.start(
                    now,
                    cluster,
                    core_speed,
                    job,
                    WaitCause::AheadInQueue,
                    started,
                );
            }
        }
        // Strict FCFS reads nothing but the head, so it never indexes its
        // queue: the staged jobs stay the whole queue, in order.
        if self.depth == Depth::Zero {
            return;
        }
        self.queue.integrate(core_speed);
        while let Some(head) = self.queue.front() {
            if !startable(cluster, head) {
                break;
            }
            let job = self.queue.pop_front().expect("peeked");
            self.start(
                now,
                cluster,
                core_speed,
                job,
                WaitCause::AheadInQueue,
                started,
            );
        }
    }

    /// Start `job` now: acquire its cores and record it. `delayed` is the
    /// wait cause attributed when the job did not start at submission
    /// ([`attribute`] downgrades it to `Immediate` otherwise).
    pub(crate) fn start(
        &mut self,
        now: SimTime,
        cluster: &mut Cluster,
        core_speed: f64,
        job: QueuedJob,
        delayed: WaitCause,
        started: &mut Vec<Started>,
    ) {
        assert!(cluster.acquire(now, job.cores), "caller checked fit");
        self.record_start(now, core_speed, job, delayed, started);
    }

    /// The bookkeeping half of [`QueueScheduler::start`]: record `job` as
    /// running and started. The caller has already acquired its cores
    /// (scan-then-remove passes acquire during the scan so later decisions
    /// see the updated free pool, and record here afterwards).
    pub(crate) fn record_start(
        &mut self,
        now: SimTime,
        core_speed: f64,
        job: QueuedJob,
        delayed: WaitCause,
        started: &mut Vec<Started>,
    ) {
        let estimated_end = now + estimated_runtime(&job, core_speed);
        let cause = attribute(now, &job, delayed);
        self.running.insert(RunningJob {
            id: job.id,
            cores: job.cores,
            estimated_end,
        });
        started.push(Started {
            job,
            start: now,
            estimated_end,
            cause,
        });
    }
}

impl BatchScheduler for QueueScheduler {
    fn submit(&mut self, _now: SimTime, job: QueuedJob) {
        self.queue.push_back(job);
    }

    fn on_complete(&mut self, now: SimTime, done: &Started) {
        self.running
            .remove((done.estimated_end, done.job.id))
            .expect("a completion names a job this scheduler started");
        if let Some(fair) = &mut self.fair {
            let wall = now.saturating_since(done.start).as_secs_f64();
            fair.charge(done.job.project, now, done.job.cores as f64 * wall);
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
        match (self.depth, self.outage) {
            (Depth::Zero, hold) => self.head_pass(now, cluster, core_speed, hold, started),
            (Depth::One, Some(horizon)) => {
                self.drain_pass(now, cluster, core_speed, horizon, started)
            }
            (Depth::One, None) => self.easy_pass(now, cluster, core_speed, started),
            (Depth::Unbounded, _) => self.conservative_pass(now, cluster, core_speed, started),
        }
    }

    fn queue_len(&self) -> usize {
        self.queue.len()
    }

    fn backfills(&self) -> u64 {
        self.backfilled
    }

    /// Only arrival-ordered FCFS and EASY act on a notice: FCFS holds its
    /// head, EASY runs the drain pass. Conservative and fair-share queues
    /// ignore it, as their frozen references do.
    fn drain_notice(&mut self, at: Option<SimTime>) {
        if self.fair.is_none() && self.depth != Depth::Unbounded {
            self.outage = at;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::decide;
    use tg_workload::{Job, JobId, ProjectId, UserId};

    fn job(id: usize, cores: usize, secs: u64) -> QueuedJob {
        fs_job(id, 0, cores, secs, 0)
    }

    fn fs_job(id: usize, project: usize, cores: usize, secs: u64, submit: u64) -> QueuedJob {
        QueuedJob::from(&Job::batch(
            JobId(id),
            UserId(id),
            ProjectId(project),
            SimTime::from_secs(submit),
            cores,
            SimDuration::from_secs(secs),
        ))
    }

    fn fcfs() -> QueueScheduler {
        QueueScheduler::new(Depth::Zero)
    }

    fn fair() -> QueueScheduler {
        QueueScheduler::fair_share(SimDuration::from_days(7))
    }

    #[test]
    fn fcfs_starts_in_order_while_fitting() {
        let mut s = fcfs();
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, job(0, 4, 100));
        s.submit(SimTime::ZERO, job(1, 4, 100));
        s.submit(SimTime::ZERO, job(2, 4, 100)); // doesn't fit
        let started = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        assert_eq!(started.len(), 2);
        assert_eq!(started[0].job.id, JobId(0));
        assert_eq!(started[1].job.id, JobId(1));
        assert_eq!(s.queue_len(), 1);
        assert_eq!(c.free_cores(), 2);
    }

    #[test]
    fn fcfs_head_blocks_everything_behind_it() {
        let mut s = fcfs();
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, job(0, 10, 100)); // full machine
        s.submit(SimTime::ZERO, job(1, 1, 10)); // tiny, would fit — must wait
        let started = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        assert_eq!(started.len(), 1);
        s.submit(SimTime::ZERO, job(2, 1, 10));
        let started = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        assert!(started.is_empty(), "FCFS never backfills");
        assert_eq!(s.queue_len(), 2);
        assert_eq!(s.backfills(), 0);
    }

    #[test]
    fn fcfs_completion_frees_the_head() {
        let mut s = fcfs();
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, job(0, 10, 100));
        let st = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        s.submit(SimTime::ZERO, job(1, 6, 50));
        let t1 = SimTime::from_secs(100);
        c.release(t1, 10);
        s.on_complete(t1, &st[0]);
        let started = decide(&mut s, t1, &mut c, 1.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job.id, JobId(1));
        assert_eq!(started[0].start, t1);
        assert_eq!(started[0].estimated_end, SimTime::from_secs(150));
        assert_eq!(started[0].cause, WaitCause::AheadInQueue);
    }

    #[test]
    #[should_panic(expected = "a completion names a job this scheduler started")]
    fn completion_rejects_a_record_the_scheduler_never_emitted() {
        let mut s = QueueScheduler::new(Depth::One);
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, job(0, 4, 100));
        let st = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        // The job's id, but not the end estimate it was started with.
        let forged = Started {
            estimated_end: st[0].estimated_end + SimDuration::from_secs(1),
            ..st[0]
        };
        s.on_complete(SimTime::from_secs(100), &forged);
    }

    #[test]
    fn fcfs_drain_notice_holds_the_head_until_lifted() {
        let mut s = fcfs();
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.drain_notice(Some(SimTime::from_secs(50)));
        s.submit(SimTime::ZERO, job(0, 2, 100)); // outlives the outage
        s.submit(SimTime::ZERO, job(1, 2, 10)); // would fit, but FCFS never overtakes
        assert!(decide(&mut s, SimTime::ZERO, &mut c, 1.0).is_empty());
        s.drain_notice(None);
        let started = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        assert_eq!(started.len(), 2);
    }

    #[test]
    fn fcfs_estimated_end_uses_core_speed() {
        let mut s = fcfs();
        let mut c = Cluster::new(SimTime::ZERO, 4);
        s.submit(SimTime::ZERO, job(0, 2, 100));
        let st = decide(&mut s, SimTime::ZERO, &mut c, 2.0);
        assert_eq!(st[0].estimated_end, SimTime::from_secs(50));
    }

    #[test]
    fn conservative_and_fair_share_ignore_drain_notices() {
        for mut s in [QueueScheduler::new(Depth::Unbounded), fair()] {
            let mut c = Cluster::new(SimTime::ZERO, 10);
            s.drain_notice(Some(SimTime::from_secs(50)));
            s.submit(SimTime::ZERO, job(0, 2, 100)); // outlives the outage
            let started = decide(&mut s, SimTime::from_secs(5), &mut c, 1.0);
            assert_eq!(started.len(), 1, "{:?} starts it anyway", s.depth);
            assert_eq!(started[0].cause, WaitCause::AheadInQueue);
        }
    }

    #[test]
    fn fair_share_behaves_like_easy_with_no_usage_history() {
        let mut s = fair();
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, fs_job(0, 0, 6, 100, 0));
        s.submit(SimTime::ZERO, fs_job(1, 1, 4, 100, 0));
        let started = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        assert_eq!(started.len(), 2, "both fit; no history → FIFO");
        assert_eq!(started[0].job.id, JobId(0));
    }

    #[test]
    fn fair_share_heavy_project_sinks_behind_light_project() {
        let mut s = fair();
        let mut c = Cluster::new(SimTime::ZERO, 10);
        // Project 0 burns the machine for a while.
        s.submit(SimTime::ZERO, fs_job(0, 0, 10, 50_000, 0));
        let st = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        assert_eq!(st.len(), 1);
        let t1 = SimTime::from_secs(50_000);
        c.release(t1, 10);
        s.on_complete(t1, &st[0]); // charges 500k core-seconds to project 0
                                   // Now project 0 submits first, project 1 second; both need the
                                   // whole machine. Fair share puts project 1 ahead.
        s.submit(t1, fs_job(1, 0, 10, 100, 50_000));
        s.submit(t1, fs_job(2, 1, 10, 100, 50_000));
        let started = decide(&mut s, t1, &mut c, 1.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job.id, JobId(2), "light project overtakes");
        assert_eq!(s.queue_len(), 1);
    }

    #[test]
    fn fair_share_long_waits_eventually_beat_usage_penalty() {
        let mut s = fair();
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, fs_job(0, 0, 10, 1000, 0));
        let st = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        let t1 = SimTime::from_secs(1000);
        c.release(t1, 10);
        s.on_complete(t1, &st[0]);
        // Project 0's next job has waited two days; project 1's arrives now.
        let t2 = SimTime::from_secs(1000 + 2 * 86_400);
        s.submit(t1, fs_job(1, 0, 10, 100, 1000));
        s.submit(t2, fs_job(2, 1, 10, 100, 1000 + 2 * 86_400));
        let started = decide(&mut s, t2, &mut c, 1.0);
        assert_eq!(
            started[0].job.id,
            JobId(1),
            "48 h of waiting outweighs the usage penalty"
        );
    }

    #[test]
    fn fair_share_charges_accrue_only_for_completed_work() {
        let mut s = fair();
        let mut c = Cluster::new(SimTime::ZERO, 8);
        s.submit(SimTime::ZERO, fs_job(0, 3, 4, 600, 0));
        let st = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        let shares = |s: &QueueScheduler, t| s.fair.as_ref().unwrap().usage_of(ProjectId(3), t);
        assert_eq!(shares(&s, SimTime::ZERO), 0.0);
        let t = SimTime::from_secs(600);
        c.release(t, 4);
        s.on_complete(t, &st[0]);
        let usage = shares(&s, t);
        assert!((usage - 2400.0).abs() < 1e-6, "4 cores × 600 s = {usage}");
    }

    #[test]
    fn fair_share_backfill_still_works_under_reranking() {
        let mut s = fair();
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, fs_job(0, 0, 6, 1000, 0));
        decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        s.submit(SimTime::ZERO, fs_job(1, 1, 8, 100, 0)); // blocked head
        s.submit(SimTime::ZERO, fs_job(2, 2, 4, 500, 0)); // backfills
        let started = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job.id, JobId(2));
        assert_eq!(s.backfills(), 1);
    }

    #[test]
    fn fair_share_ties_keep_queue_order_across_passes() {
        let mut s = fair();
        let mut c = Cluster::new(SimTime::ZERO, 4);
        s.submit(SimTime::ZERO, fs_job(0, 0, 4, 100, 0)); // fills the machine
        decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        // Equal priorities (no usage yet, same submit time): arrival order
        // survives every re-rank.
        for id in 1..=3 {
            s.submit(SimTime::ZERO, fs_job(id, id, 4, 100, 0));
        }
        assert!(decide(&mut s, SimTime::ZERO, &mut c, 1.0).is_empty());
        let order: Vec<_> = s.queue.iter().map(|(_, j)| j.id.0).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }
}
