//! Strict first-come-first-served scheduling.
//!
//! The head of the queue starts as soon as it fits; nothing behind it may
//! overtake. Simple, fair, and the utilization floor every backfill variant
//! is measured against.

use crate::queue::{
    attribute, estimated_runtime, BatchScheduler, QueuedJob, RunningJob, RunningSet, Started,
};
use std::collections::VecDeque;
use tg_des::span::WaitCause;
use tg_des::SimTime;
use tg_model::Cluster;
use tg_workload::JobId;

/// FCFS scheduler.
#[derive(Debug, Default)]
pub struct Fcfs {
    queue: VecDeque<QueuedJob>,
    running: RunningSet,
    /// Armed outage notice: don't start work estimated to outlive this.
    outage: Option<SimTime>,
}

impl Fcfs {
    /// An empty FCFS scheduler.
    pub fn new() -> Self {
        Fcfs::default()
    }
}

impl BatchScheduler for Fcfs {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn submit(&mut self, _now: SimTime, job: QueuedJob) {
        self.queue.push_back(job);
    }

    fn on_complete(&mut self, _now: SimTime, id: JobId) {
        self.running.remove(id);
    }

    fn make_decisions(
        &mut self,
        now: SimTime,
        cluster: &mut Cluster,
        core_speed: f64,
        started: &mut Vec<Started>,
    ) {
        while let Some(head) = self.queue.front() {
            if !cluster.can_fit(head.cores) {
                break;
            }
            // Under an outage notice the head also may not start unless it is
            // estimated to finish before the outage. Strict FCFS: nothing
            // overtakes it, so the queue simply waits out the drain.
            if let Some(horizon) = self.outage {
                if now + estimated_runtime(head, core_speed) > horizon {
                    break;
                }
            }
            let job = self.queue.pop_front().expect("peeked");
            assert!(cluster.acquire(now, job.cores), "can_fit said yes");
            let estimated_end = now + estimated_runtime(&job, core_speed);
            // Under strict FCFS a delayed start is always queue-order.
            let cause = attribute(now, &job, WaitCause::AheadInQueue);
            self.running.insert(RunningJob {
                id: job.id,
                cores: job.cores,
                estimated_end,
            });
            started.push(Started {
                job,
                estimated_end,
                cause,
            });
        }
    }

    fn queue_len(&self) -> usize {
        self.queue.len()
    }

    fn drain_notice(&mut self, at: Option<SimTime>) {
        self.outage = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::decide;
    use tg_des::SimDuration;
    use tg_workload::{Job, ProjectId, UserId};

    fn job(id: usize, cores: usize, secs: u64) -> QueuedJob {
        QueuedJob::from(&Job::batch(
            JobId(id),
            UserId(0),
            ProjectId(0),
            SimTime::ZERO,
            cores,
            SimDuration::from_secs(secs),
        ))
    }

    #[test]
    fn starts_in_order_while_fitting() {
        let mut s = Fcfs::new();
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
    fn head_blocks_everything_behind_it() {
        let mut s = Fcfs::new();
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, job(0, 10, 100)); // full machine
        s.submit(SimTime::ZERO, job(1, 1, 10)); // tiny, would fit — must wait
        let started = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        assert_eq!(started.len(), 1);
        s.submit(SimTime::ZERO, job(2, 1, 10));
        let started = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        assert!(started.is_empty(), "FCFS never backfills");
        assert_eq!(s.queue_len(), 2);
    }

    #[test]
    fn completion_frees_the_head() {
        let mut s = Fcfs::new();
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, job(0, 10, 100));
        let st = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        s.submit(SimTime::ZERO, job(1, 6, 50));
        let t1 = SimTime::from_secs(100);
        c.release(t1, 10);
        s.on_complete(t1, st[0].job.id);
        let started = decide(&mut s, t1, &mut c, 1.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job.id, JobId(1));
        assert_eq!(started[0].estimated_end, SimTime::from_secs(150));
    }

    #[test]
    fn drain_notice_holds_the_head_until_lifted() {
        let mut s = Fcfs::new();
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
    fn estimated_end_uses_core_speed() {
        let mut s = Fcfs::new();
        let mut c = Cluster::new(SimTime::ZERO, 4);
        s.submit(SimTime::ZERO, job(0, 2, 100));
        let st = decide(&mut s, SimTime::ZERO, &mut c, 2.0);
        assert_eq!(st[0].estimated_end, SimTime::from_secs(50));
    }
}
