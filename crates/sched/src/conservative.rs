//! Conservative backfill (Mu'alem & Feitelson 2001): the decision pass of
//! a [`QueueScheduler`] at unbounded reservation depth.
//!
//! Every queued job holds a reservation; a job may move earlier only if it
//! delays *no* reservation. Implemented by rebuilding an availability
//! profile (piecewise-constant free-core function of future time) from the
//! running set on every decision round and greedily placing each queued job
//! at its earliest consistent start. Jobs whose start is *now* actually
//! start. Rebuilding per round is O(queue × segments) — simple, and cheap at
//! the queue lengths grid sites see.

use crate::batch::QueueScheduler;
use crate::queue::{estimated_runtime, RunningJob, Started};
use tg_des::span::WaitCause;
use tg_des::{SimDuration, SimTime};
use tg_model::Cluster;

/// Piecewise-constant free-core profile over future time.
///
/// `segments[i]` covers `[segments[i].0, segments[i+1].0)`; the last segment
/// extends to infinity. Invariant: times strictly increase.
///
/// Besides backing conservative backfill, the profile is the planning
/// substrate for cross-site co-allocation (see [`crate::coalloc`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    segments: Vec<(SimTime, usize)>,
}

impl Profile {
    /// An empty-machine profile: `free` cores available from `now` onward.
    pub fn new(now: SimTime, free: usize) -> Self {
        Profile {
            segments: vec![(now, free)],
        }
    }

    /// Mark `cores` as occupied from the profile's start until `end`
    /// (a running job, from the planner's point of view).
    pub fn occupy_until(&mut self, end: SimTime, cores: usize) {
        let start = self.segments[0].0;
        if end > start {
            // Equivalent to reserving [start, end).
            self.reserve(start, end - start, cores);
        }
    }

    /// Profile starting at `now` with `free` cores, minus each running job's
    /// cores until its estimated end. The running jobs may come in any order
    /// (the profile is a commutative sum of per-job contributions).
    pub(crate) fn from_running<I>(now: SimTime, free: usize, running: I) -> Self
    where
        I: IntoIterator<Item = RunningJob>,
    {
        let mut p = Profile::new(now, free);
        for r in running {
            // Each running job occupies its cores from now until its end.
            let end = r.estimated_end.max(now);
            if end > now {
                p.add_free_at(end, r.cores);
            }
        }
        p
    }

    /// Increase free cores from `at` onward by `cores`.
    fn add_free_at(&mut self, at: SimTime, cores: usize) {
        self.split_at(at);
        for seg in &mut self.segments {
            if seg.0 >= at {
                seg.1 += cores;
            }
        }
    }

    /// Ensure a breakpoint exists at `at` (if within range).
    fn split_at(&mut self, at: SimTime) {
        if at <= self.segments[0].0 {
            return;
        }
        match self.segments.binary_search_by_key(&at, |s| s.0) {
            Ok(_) => {}
            Err(idx) => {
                let free = self.segments[idx - 1].1;
                self.segments.insert(idx, (at, free));
            }
        }
    }

    /// Free cores at instant `t`.
    pub fn free_at(&self, t: SimTime) -> usize {
        match self.segments.binary_search_by_key(&t, |s| s.0) {
            Ok(idx) => self.segments[idx].1,
            Err(0) => self.segments[0].1, // before profile start: treat as start
            Err(idx) => self.segments[idx - 1].1,
        }
    }

    /// Earliest start `t ≥ from` such that `free ≥ cores` throughout
    /// `[t, t + dur)`. Returns [`SimTime::MAX`] if no such start exists
    /// (cores exceed the profile's eventual free count).
    pub fn find_slot(&self, from: SimTime, cores: usize, dur: SimDuration) -> SimTime {
        let mut candidate = from.max(self.segments[0].0);
        'outer: loop {
            let end = candidate + dur;
            for (i, &(seg_start, seg_free)) in self.segments.iter().enumerate() {
                let seg_end = self
                    .segments
                    .get(i + 1)
                    .map(|s| s.0)
                    .unwrap_or(SimTime::MAX);
                if seg_end <= candidate {
                    continue; // segment entirely before the window
                }
                if seg_start >= end {
                    break; // segment entirely after the window
                }
                if seg_free < cores {
                    if seg_end == SimTime::MAX {
                        return SimTime::MAX; // never enough cores
                    }
                    candidate = seg_end;
                    continue 'outer;
                }
            }
            return candidate;
        }
    }

    /// Reserve `cores` during `[t, t + dur)`. Panics if the window lacks
    /// capacity (callers plan with [`Profile::find_slot`] first).
    pub fn reserve(&mut self, t: SimTime, dur: SimDuration, cores: usize) {
        let end = t + dur;
        self.split_at(t);
        self.split_at(end);
        for seg in &mut self.segments {
            if seg.0 >= t && seg.0 < end {
                assert!(seg.1 >= cores, "over-reservation in profile");
                seg.1 -= cores;
            }
        }
    }
}

impl QueueScheduler {
    /// One conservative decision pass: rebuild the availability profile
    /// from the running set, then place every queued job, in queue order,
    /// at its earliest start that delays no earlier reservation. Jobs whose
    /// start is *now* start; the rest reserve their slot. Every delay traces
    /// back to the reservations of earlier-queued jobs, so a delayed start
    /// cites [`WaitCause::AheadInQueue`] and none counts as a backfill.
    pub(crate) fn conservative_pass(
        &mut self,
        now: SimTime,
        cluster: &mut Cluster,
        core_speed: f64,
        started: &mut Vec<Started>,
    ) {
        self.queue.integrate(core_speed);
        let mut profile =
            Profile::from_running(now, cluster.free_cores(), self.running.iter_by_end());
        let mut picked = std::mem::take(&mut self.queue.picked);
        for (place, job) in self.queue.iter() {
            let dur = estimated_runtime(job, core_speed);
            let slot = profile.find_slot(now, job.cores, dur);
            if slot == now {
                assert!(cluster.acquire(now, job.cores), "profile said free");
                picked.push(place);
            }
            if slot != SimTime::MAX {
                profile.reserve(slot, dur, job.cores);
            }
        }
        for place in picked.drain(..) {
            let job = self.queue.take(place);
            self.record_start(now, core_speed, job, WaitCause::AheadInQueue, started);
        }
        self.queue.picked = picked;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Depth;
    use crate::queue::{decide, BatchScheduler, QueuedJob};
    use tg_workload::{Job, JobId, ProjectId, UserId};

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
    fn profile_construction_and_queries() {
        let running = vec![
            RunningJob {
                id: JobId(0),
                cores: 4,
                estimated_end: SimTime::from_secs(100),
            },
            RunningJob {
                id: JobId(1),
                cores: 2,
                estimated_end: SimTime::from_secs(50),
            },
        ];
        let p = Profile::from_running(SimTime::ZERO, 4, running);
        assert_eq!(p.free_at(SimTime::ZERO), 4);
        assert_eq!(p.free_at(SimTime::from_secs(49)), 4);
        assert_eq!(p.free_at(SimTime::from_secs(50)), 6);
        assert_eq!(p.free_at(SimTime::from_secs(100)), 10);
    }

    #[test]
    fn find_slot_spans_segments() {
        let running = vec![RunningJob {
            id: JobId(0),
            cores: 6,
            estimated_end: SimTime::from_secs(100),
        }];
        let p = Profile::from_running(SimTime::ZERO, 4, running);
        // 4 cores for 50 s fits immediately.
        assert_eq!(
            p.find_slot(SimTime::ZERO, 4, SimDuration::from_secs(50)),
            SimTime::ZERO
        );
        // 6 cores must wait for the completion at t=100.
        assert_eq!(
            p.find_slot(SimTime::ZERO, 6, SimDuration::from_secs(10)),
            SimTime::from_secs(100)
        );
        // 11 cores never fit.
        assert_eq!(
            p.find_slot(SimTime::ZERO, 11, SimDuration::from_secs(1)),
            SimTime::MAX
        );
    }

    #[test]
    fn reserve_blocks_subsequent_slots() {
        let mut p = Profile::from_running(SimTime::ZERO, 10, []);
        p.reserve(SimTime::from_secs(100), SimDuration::from_secs(100), 8);
        // 4 cores for 300 s starting now would overlap the reservation
        // window where only 2 are free.
        assert_eq!(
            p.find_slot(SimTime::ZERO, 4, SimDuration::from_secs(300)),
            SimTime::from_secs(200)
        );
        // 2 cores sneak through the whole window.
        assert_eq!(
            p.find_slot(SimTime::ZERO, 2, SimDuration::from_secs(300)),
            SimTime::ZERO
        );
    }

    #[test]
    fn short_job_backfills_but_reservation_delaying_job_does_not() {
        let mut s = QueueScheduler::new(Depth::Unbounded);
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, job(0, 6, 1000));
        decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        s.submit(SimTime::ZERO, job(1, 8, 100)); // reservation at t=1000
        s.submit(SimTime::ZERO, job(2, 4, 500)); // ends before 1000 → ok
        let started = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job.id, JobId(2));

        // A long 4-core job would collide with job 1's reservation
        // ([1000,1100) has free 10-8=2... after job2 started, profile at
        // [0,500) free 0; job 3 must not start now.
        s.submit(SimTime::ZERO, job(3, 4, 2000));
        let started = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        assert!(started.is_empty());
    }

    #[test]
    fn conservative_protects_every_reservation_not_just_head() {
        // Machine 10. Running: 10 cores until t=100.
        // Queue: A(10 cores, est 100) reserves [100,200).
        //        B(2, est 100) reserves [200,300).
        //        C(2, est 300): must not delay B; earliest consistent slot
        //        is t=200 (alongside B: free 10-10=0 in [100,200)... wait).
        let mut s = QueueScheduler::new(Depth::Unbounded);
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, job(0, 10, 100));
        let st = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        assert_eq!(st.len(), 1);
        s.submit(SimTime::ZERO, job(1, 10, 100)); // reserves [100,200)
        s.submit(SimTime::ZERO, job(2, 2, 100)); // reserves [200,300)
        s.submit(SimTime::ZERO, job(3, 2, 300)); // fits [200,500) alongside 2
        let started = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        assert!(started.is_empty(), "nothing can start while machine full");
        assert_eq!(s.queue_len(), 3);
        // At t=100, job 0 completes; job 1 starts; 2 and 3 wait.
        c.release(SimTime::from_secs(100), 10);
        s.on_complete(SimTime::from_secs(100), &st[0]);
        let started = decide(&mut s, SimTime::from_secs(100), &mut c, 1.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job.id, JobId(1));
    }

    #[test]
    fn starts_multiple_independent_jobs_in_one_round() {
        let mut s = QueueScheduler::new(Depth::Unbounded);
        let mut c = Cluster::new(SimTime::ZERO, 10);
        for i in 0..5 {
            s.submit(SimTime::ZERO, job(i, 2, 100));
        }
        let started = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        assert_eq!(started.len(), 5);
        assert_eq!(c.free_cores(), 0);
    }
}
