//! The scheduler interface and shared queue machinery.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tg_des::span::WaitCause;
use tg_des::{SimDuration, SimTime};
use tg_model::Cluster;
use tg_workload::{IdMap, Job, JobId};

/// A job the scheduler has decided to start *now*.
#[derive(Debug, Clone, PartialEq)]
pub struct Started {
    /// The job (removed from the queue).
    pub job: Job,
    /// What the scheduler believes the end time is (estimate-based); the
    /// driver computes the *actual* completion from the true runtime.
    pub estimated_end: SimTime,
    /// The dominant reason the job waited until now (observability only —
    /// never consulted by scheduling logic).
    pub cause: WaitCause,
}

/// A running job as the scheduler tracks it (estimates, not truth).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RunningJob {
    pub id: JobId,
    pub cores: usize,
    pub estimated_end: SimTime,
}

/// The indexed running set shared by every scheduler: an id→job map for
/// O(1)-expected completion removal plus an `(estimated_end, id)`-ordered
/// view so shadow-time and profile computations iterate completions in end
/// order without re-sorting per decision pass.
///
/// The end-ordered view iterates by *raw* estimated end. Shadow-time callers
/// clamp ends to `now`; clamping `max(now)` preserves the non-decreasing
/// order, so cumulative-core scans over this view cross any threshold at
/// exactly the time the sorted-per-pass implementation found (ties at equal
/// clamped time are order-independent for a cumulative sum).
#[derive(Debug, Default)]
pub(crate) struct RunningSet {
    by_id: IdMap<JobId, RunningJob>,
    by_end: BTreeMap<(SimTime, JobId), usize>,
}

impl RunningSet {
    pub(crate) fn new() -> Self {
        RunningSet::default()
    }

    pub(crate) fn insert(&mut self, r: RunningJob) {
        self.by_end.insert((r.estimated_end, r.id), r.cores);
        self.by_id.insert(r.id, r);
    }

    pub(crate) fn remove(&mut self, id: JobId) -> Option<RunningJob> {
        let r = self.by_id.remove(&id)?;
        self.by_end.remove(&(r.estimated_end, r.id));
        Some(r)
    }

    /// Running jobs in ascending `(estimated_end, id)` order.
    pub(crate) fn iter_by_end(&self) -> impl Iterator<Item = RunningJob> + '_ {
        self.by_end.iter().map(|(&(end, id), &cores)| RunningJob {
            id,
            cores,
            estimated_end: end,
        })
    }
}

/// The per-site batch scheduler interface.
///
/// Protocol (enforced by the driver in `tg-core`):
/// 1. [`submit`](BatchScheduler::submit) when a job arrives;
/// 2. [`on_complete`](BatchScheduler::on_complete) when a running job ends;
/// 3. after any of the above — and at
///    [`next_wakeup`](BatchScheduler::next_wakeup) instants —
///    [`make_decisions`](BatchScheduler::make_decisions), acquiring cluster
///    cores for every job returned.
pub trait BatchScheduler: Send {
    /// Scheduler name for reports.
    fn name(&self) -> &'static str;

    /// Enqueue a job at `now`.
    fn submit(&mut self, now: SimTime, job: Job);

    /// Notify that running job `id` completed at `now`.
    fn on_complete(&mut self, now: SimTime, id: JobId);

    /// Start whatever should start now, appending each started job to
    /// `started` in start order. The buffer is the caller's: it is reused
    /// across calls, so implementations only push and never assume it
    /// starts empty. Implementations must acquire cores from `cluster` for
    /// each job they push. `core_speed` converts the job's reference
    /// estimate into machine time.
    fn make_decisions(
        &mut self,
        now: SimTime,
        cluster: &mut Cluster,
        core_speed: f64,
        started: &mut Vec<Started>,
    );

    /// Queue length (jobs waiting).
    fn queue_len(&self) -> usize;

    /// Next instant the scheduler wants an unconditional `make_decisions`
    /// call (used by time-triggered policies like weekly drain).
    fn next_wakeup(&self, _now: SimTime) -> Option<SimTime> {
        None
    }

    /// Advance notice of a site outage at `Some(at)`: until the notice is
    /// lifted (`None`, on recovery) the scheduler should avoid starting work
    /// it estimates would still be running at `at` — a graceful drain.
    /// Default: ignore the notice (the fault layer will kill running work at
    /// the outage instant regardless).
    fn drain_notice(&mut self, _at: Option<SimTime>) {}

    /// Jobs started out of FIFO order by backfilling so far (observability
    /// counter; policies without a backfill phase report 0).
    fn backfills(&self) -> u64 {
        0
    }

    /// Completed drain phases so far (observability counter; policies
    /// without a drain mechanism report 0).
    fn drains(&self) -> u64 {
        0
    }
}

/// Closed enumeration of the batch schedulers, for configs and sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum SchedulerKind {
    /// Strict first-come-first-served.
    Fcfs,
    /// EASY backfill (one reservation).
    Easy,
    /// Conservative backfill (all reservations).
    Conservative,
    /// Weekly-drain capability policy over EASY.
    WeeklyDrain,
    /// Weekly drain without pre-drain filling (stop-the-world baseline for
    /// the A2 ablation).
    NaiveDrain,
    /// EASY backfill over a fair-share-ordered queue (one-week usage decay).
    FairshareEasy,
}

impl SchedulerKind {
    /// All kinds, for sweeps.
    pub const ALL: [SchedulerKind; 6] = [
        SchedulerKind::Fcfs,
        SchedulerKind::Easy,
        SchedulerKind::Conservative,
        SchedulerKind::WeeklyDrain,
        SchedulerKind::NaiveDrain,
        SchedulerKind::FairshareEasy,
    ];

    /// Instantiate the scheduler.
    pub fn build(self, machine_cores: usize) -> Box<dyn BatchScheduler> {
        match self {
            SchedulerKind::Fcfs => Box::new(crate::fcfs::Fcfs::new()),
            SchedulerKind::Easy => Box::new(crate::easy::EasyBackfill::new()),
            SchedulerKind::Conservative => {
                Box::new(crate::conservative::ConservativeBackfill::new())
            }
            SchedulerKind::WeeklyDrain => Box::new(crate::drain::WeeklyDrain::new(
                crate::easy::EasyBackfill::new(),
                SimDuration::from_weeks(1),
                machine_cores,
            )),
            SchedulerKind::NaiveDrain => Box::new(
                crate::drain::WeeklyDrain::new(
                    crate::easy::EasyBackfill::new(),
                    SimDuration::from_weeks(1),
                    machine_cores,
                )
                .with_predrain_fill(false),
            ),
            SchedulerKind::FairshareEasy => Box::new(crate::fairshare_easy::FairshareEasy::new(
                SimDuration::from_weeks(1),
            )),
        }
    }

    /// Instantiate the retained naive (pre-optimization) implementation —
    /// the differential-test oracle of [`crate::reference`]. Same decisions
    /// as [`SchedulerKind::build`], worse asymptotics; meant for tests and
    /// benchmarks only.
    pub fn build_reference(self, machine_cores: usize) -> Box<dyn BatchScheduler> {
        use crate::reference::*;
        match self {
            SchedulerKind::Fcfs => Box::new(NaiveFcfs::new()),
            SchedulerKind::Easy => Box::new(NaiveEasy::new()),
            SchedulerKind::Conservative => Box::new(NaiveConservative::new()),
            SchedulerKind::WeeklyDrain => Box::new(NaiveWeeklyDrain::new(
                SimDuration::from_weeks(1),
                machine_cores,
            )),
            SchedulerKind::NaiveDrain => Box::new(
                NaiveWeeklyDrain::new(SimDuration::from_weeks(1), machine_cores)
                    .with_predrain_fill(false),
            ),
            SchedulerKind::FairshareEasy => {
                Box::new(NaiveFairshareEasy::new(SimDuration::from_weeks(1)))
            }
        }
    }

    /// Stable short name.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Fcfs => "fcfs",
            SchedulerKind::Easy => "easy",
            SchedulerKind::Conservative => "conservative",
            SchedulerKind::WeeklyDrain => "weekly-drain",
            SchedulerKind::NaiveDrain => "naive-drain",
            SchedulerKind::FairshareEasy => "fairshare-easy",
        }
    }
}

/// Test shorthand: one decision pass into a fresh buffer.
#[cfg(test)]
pub(crate) fn decide(
    sched: &mut impl BatchScheduler,
    now: SimTime,
    cluster: &mut Cluster,
    core_speed: f64,
) -> Vec<Started> {
    let mut started = Vec::new();
    sched.make_decisions(now, cluster, core_speed, &mut started);
    started
}

/// Wait attribution for a job starting at `now`: a job that starts at its
/// submission instant never waited ([`WaitCause::Immediate`]); otherwise the
/// caller's `delayed` cause — the policy-specific reason the start was
/// pushed past submission — stands.
///
/// Schedulers see the job's *routed* submit time, which is also when their
/// first decision round over the job runs, so `submit_time >= now` exactly
/// captures "started at the first opportunity".
pub(crate) fn attribute(now: SimTime, job: &Job, delayed: WaitCause) -> WaitCause {
    if job.submit_time >= now {
        WaitCause::Immediate
    } else {
        delayed
    }
}

/// Scheduler-side estimate of a job's runtime on a machine with relative
/// `core_speed` (always based on the *estimate*, never the true runtime —
/// schedulers don't get to peek).
pub(crate) fn estimated_runtime(job: &Job, core_speed: f64) -> SimDuration {
    job.estimate.mul_f64(1.0 / core_speed.max(1e-9))
}

/// Shared helper: earliest time at which `cores_needed` cores will be free,
/// given current free cores and the running set (by estimates). Returns
/// `now` if they are free already.
///
/// This is the "shadow time" computation at the heart of every backfill
/// variant.
pub(crate) fn earliest_fit(
    now: SimTime,
    free_cores: usize,
    cores_needed: usize,
    running: &RunningSet,
) -> SimTime {
    if cores_needed <= free_cores {
        return now;
    }
    let mut free = free_cores;
    for r in running.iter_by_end() {
        free += r.cores;
        if free >= cores_needed {
            return r.estimated_end.max(now);
        }
    }
    // Unreachable if the job fits the machine (total cores = free + running).
    SimTime::MAX
}

/// Cores free at instant `at ≥ now`: the currently free pool plus every
/// running job estimated (clamped to `now`) to have completed by then.
///
/// Early exit is sound because `at ≥ now` makes `end.max(now) ≤ at`
/// equivalent to `end ≤ at`, and the set iterates by ascending raw end.
pub(crate) fn free_at(now: SimTime, free_cores: usize, at: SimTime, running: &RunningSet) -> usize {
    debug_assert!(at >= now, "free_at queries the future");
    let mut free = free_cores;
    for r in running.iter_by_end() {
        if r.estimated_end.max(now) > at {
            break;
        }
        free += r.cores;
    }
    free
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_workload::{ProjectId, UserId};

    fn running(id: usize, cores: usize, end_s: u64) -> RunningJob {
        RunningJob {
            id: JobId(id),
            cores,
            estimated_end: SimTime::from_secs(end_s),
        }
    }

    fn set(jobs: &[RunningJob]) -> RunningSet {
        let mut s = RunningSet::new();
        for &r in jobs {
            s.insert(r);
        }
        s
    }

    #[test]
    fn earliest_fit_now_when_free() {
        assert_eq!(
            earliest_fit(SimTime::from_secs(5), 10, 8, &set(&[])),
            SimTime::from_secs(5)
        );
    }

    #[test]
    fn earliest_fit_waits_for_enough_completions() {
        let r = set(&[running(0, 4, 100), running(1, 4, 50), running(2, 2, 200)]);
        // free 0, need 6: at t=50 free 4; at t=100 free 8 ≥ 6.
        assert_eq!(
            earliest_fit(SimTime::ZERO, 0, 6, &r),
            SimTime::from_secs(100)
        );
        // need 4: satisfied at first completion.
        assert_eq!(
            earliest_fit(SimTime::ZERO, 0, 4, &r),
            SimTime::from_secs(50)
        );
    }

    #[test]
    fn earliest_fit_clamps_past_estimates_to_now() {
        // A running job whose estimate already elapsed (overrun) still counts
        // as ending "now or later", never in the past.
        let r = set(&[running(0, 8, 10)]);
        let t = earliest_fit(SimTime::from_secs(100), 0, 8, &r);
        assert_eq!(t, SimTime::from_secs(100));
    }

    #[test]
    fn earliest_fit_unsatisfiable_is_max() {
        let r = set(&[running(0, 2, 10)]);
        assert_eq!(earliest_fit(SimTime::ZERO, 1, 10, &r), SimTime::MAX);
    }

    #[test]
    fn free_at_counts_clamped_completions_up_to_the_instant() {
        let r = set(&[running(0, 4, 100), running(1, 4, 50), running(2, 2, 200)]);
        assert_eq!(free_at(SimTime::ZERO, 0, SimTime::from_secs(49), &r), 0);
        assert_eq!(free_at(SimTime::ZERO, 0, SimTime::from_secs(50), &r), 4);
        assert_eq!(free_at(SimTime::ZERO, 0, SimTime::from_secs(100), &r), 8);
        assert_eq!(free_at(SimTime::ZERO, 0, SimTime::MAX, &r), 10);
        // Overrun jobs (raw end in the past) clamp to `now` and count.
        let late = set(&[running(0, 8, 10)]);
        let now = SimTime::from_secs(100);
        assert_eq!(free_at(now, 1, now, &late), 9);
    }

    #[test]
    fn running_set_remove_keeps_both_views_consistent() {
        let mut s = set(&[running(0, 4, 100), running(1, 2, 50)]);
        let r = s.remove(JobId(1)).expect("present");
        assert_eq!(r.cores, 2);
        assert!(s.remove(JobId(1)).is_none(), "second remove is a no-op");
        let ends: Vec<_> = s.iter_by_end().map(|r| r.id).collect();
        assert_eq!(ends, vec![JobId(0)]);
    }

    #[test]
    fn estimated_runtime_scales() {
        let j = Job::batch(
            JobId(0),
            UserId(0),
            ProjectId(0),
            SimTime::ZERO,
            4,
            SimDuration::from_secs(100),
        )
        .with_estimate(SimDuration::from_secs(200));
        assert_eq!(estimated_runtime(&j, 1.0), SimDuration::from_secs(200));
        assert_eq!(estimated_runtime(&j, 2.0), SimDuration::from_secs(100));
    }

    #[test]
    fn kinds_build_and_name() {
        for k in SchedulerKind::ALL {
            let s = k.build(1024);
            assert!(!s.name().is_empty());
            assert_eq!(s.queue_len(), 0);
        }
        assert_eq!(SchedulerKind::Easy.name(), "easy");
    }
}
