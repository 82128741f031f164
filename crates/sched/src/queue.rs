//! The scheduler interface and shared queue machinery.

use serde::{Deserialize, Serialize};
use tg_des::span::WaitCause;
use tg_des::{SimDuration, SimTime};
use tg_model::Cluster;
use tg_workload::{Job, JobId, ProjectId};

/// What a batch scheduler sees of a queued job: the fields its policies
/// read, copied out of the [`Job`] at submission. The job itself stays with
/// the caller, so queues move and reorder 40-byte views instead of
/// 208-byte jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedJob {
    /// The job's id.
    pub id: JobId,
    /// Project charged (fair-share ordering).
    pub project: ProjectId,
    /// Submit time as routed to the site (wait attribution, fair-share age).
    pub submit_time: SimTime,
    /// Cores requested.
    pub cores: usize,
    /// The user's runtime estimate on reference hardware.
    pub estimate: SimDuration,
}

impl From<&Job> for QueuedJob {
    fn from(job: &Job) -> Self {
        QueuedJob {
            id: job.id,
            project: job.project,
            submit_time: job.submit_time,
            cores: job.cores,
            estimate: job.estimate,
        }
    }
}

/// A job the scheduler has decided to start *now*. The driver keeps the
/// record while the job runs and hands it back to
/// [`BatchScheduler::on_complete`] when the job ends, so the scheduler
/// needs no id-keyed table of its own to find, or charge for, the job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Started {
    /// The job (removed from the queue).
    pub job: QueuedJob,
    /// The start instant (the decision pass's `now`).
    pub start: SimTime,
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

impl RunningJob {
    fn key(&self) -> (SimTime, JobId) {
        (self.estimated_end, self.id)
    }
}

/// Entries per block of a [`RunningSet`] before the block splits.
const BLOCK: usize = 32;

/// A run of the running set in `(estimated_end, id)` order, with its
/// cores summed.
#[derive(Debug, Default)]
struct EndBlock {
    jobs: Vec<RunningJob>,
    cores: usize,
}

/// The indexed running set shared by every scheduler: the running jobs in
/// `(estimated_end, id)` order, cut into blocks of at most [`BLOCK`]
/// entries that each carry their core sum. A completion names its entry by
/// that key, read off the [`Started`] record the driver hands back.
/// [`shadow`] adds whole blocks and scans only the block where the head's
/// need is crossed; conservative profiles iterate completions in end order
/// without re-sorting per decision pass.
///
/// A start or completion binary-searches the blocks by their last key and
/// moves at most one block's entries. A block that outgrows [`BLOCK`]
/// splits in half; one that empties is dropped and its buffer kept for the
/// next split, and one that shrinks below a quarter merges into a
/// neighbour that has room, so the block count stays near
/// `len / (BLOCK / 2)` and nothing allocates once the set reaches its
/// working size.
///
/// The order is by *raw* estimated end. Shadow-time callers clamp ends to
/// `now`; clamping `max(now)` preserves the non-decreasing order, so
/// cumulative-core scans over this view cross any threshold at exactly the
/// time the sorted-per-pass implementation found (ties at equal clamped
/// time are order-independent for a cumulative sum).
#[derive(Debug, Default)]
pub(crate) struct RunningSet {
    blocks: Vec<EndBlock>,
    /// Buffers of dropped blocks, reused by splits.
    spare: Vec<Vec<RunningJob>>,
}

impl RunningSet {
    pub(crate) fn new() -> Self {
        RunningSet::default()
    }

    /// The block whose key range holds `key`: the first whose last key is
    /// not below it (the last block for a key past every entry).
    fn block_of(&self, key: (SimTime, JobId)) -> usize {
        let b = self
            .blocks
            .partition_point(|blk| blk.jobs.last().expect("blocks are never empty").key() < key);
        b.min(self.blocks.len().saturating_sub(1))
    }

    fn new_block(&mut self) -> Vec<RunningJob> {
        self.spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(BLOCK + 1))
    }

    pub(crate) fn insert(&mut self, r: RunningJob) {
        if self.blocks.is_empty() {
            let mut jobs = self.new_block();
            jobs.push(r);
            self.blocks.push(EndBlock {
                jobs,
                cores: r.cores,
            });
            return;
        }
        let b = self.block_of(r.key());
        let blk = &mut self.blocks[b];
        let at = blk.jobs.partition_point(|x| x.key() < r.key());
        blk.jobs.insert(at, r);
        blk.cores += r.cores;
        if blk.jobs.len() > BLOCK {
            let mut upper = self.new_block();
            let blk = &mut self.blocks[b];
            upper.extend(blk.jobs.drain(BLOCK / 2..));
            let moved: usize = upper.iter().map(|x| x.cores).sum();
            blk.cores -= moved;
            self.blocks.insert(
                b + 1,
                EndBlock {
                    jobs: upper,
                    cores: moved,
                },
            );
        }
    }

    /// Remove the entry with `key` (`None` if no running job has it).
    pub(crate) fn remove(&mut self, key: (SimTime, JobId)) -> Option<RunningJob> {
        if self.blocks.is_empty() {
            return None;
        }
        let b = self.block_of(key);
        let blk = &mut self.blocks[b];
        let at = blk.jobs.binary_search_by_key(&key, RunningJob::key).ok()?;
        let r = blk.jobs.remove(at);
        blk.cores -= r.cores;
        if blk.jobs.is_empty() {
            let blk = self.blocks.remove(b);
            self.spare.push(blk.jobs);
        } else if blk.jobs.len() < BLOCK / 4 {
            self.merge_small(b);
        }
        Some(r)
    }

    /// Fold block `b`, fallen below a quarter full, into a neighbour when
    /// the two fit in three quarters of a block.
    fn merge_small(&mut self, b: usize) {
        let len = |i: usize| self.blocks[i].jobs.len();
        let into = if b + 1 < self.blocks.len() && len(b) + len(b + 1) <= BLOCK * 3 / 4 {
            b
        } else if b > 0 && len(b - 1) + len(b) <= BLOCK * 3 / 4 {
            b - 1
        } else {
            return;
        };
        let next = self.blocks.remove(into + 1);
        let blk = &mut self.blocks[into];
        blk.jobs.extend_from_slice(&next.jobs);
        blk.cores += next.cores;
        let mut buf = next.jobs;
        buf.clear();
        self.spare.push(buf);
    }

    /// Running jobs in ascending `(estimated_end, id)` order.
    pub(crate) fn iter_by_end(&self) -> impl Iterator<Item = RunningJob> + '_ {
        self.blocks.iter().flat_map(|b| b.jobs.iter().copied())
    }
}

/// The per-site batch scheduler interface.
///
/// Protocol (enforced by the driver in `tg-core`):
/// 1. [`submit`](BatchScheduler::submit) when a job arrives;
/// 2. [`on_complete`](BatchScheduler::on_complete) when a running job ends
///    (completes or is killed by a fault), passing back the [`Started`]
///    record this scheduler returned for it;
/// 3. after any of the above — and at
///    [`next_wakeup`](BatchScheduler::next_wakeup) instants —
///    [`make_decisions`](BatchScheduler::make_decisions), acquiring cluster
///    cores for every job returned.
pub trait BatchScheduler: Send {
    /// Enqueue a job at `now`.
    fn submit(&mut self, now: SimTime, job: QueuedJob);

    /// Notify that the running job `done` ended at `now`. `done` is the
    /// record this scheduler returned from
    /// [`make_decisions`](BatchScheduler::make_decisions) when it started
    /// the job, unchanged.
    fn on_complete(&mut self, now: SimTime, done: &Started);

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
    /// lifted (`None`, on recovery) the scheduler may avoid starting work it
    /// estimates would still be running at `at` — a graceful drain.
    /// Default: ignore the notice (the fault layer will kill running work at
    /// the outage instant regardless). Only two kinds act on it:
    /// [`SchedulerKind::Fcfs`] holds its head, and [`SchedulerKind::Easy`]
    /// starts only jobs estimated to finish in time (citing
    /// [`WaitCause::DrainWindow`]). Conservative, fair-share EASY and both
    /// weekly drains ignore it, so for them an announced outage is an
    /// unannounced one.
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
        use crate::batch::{Depth, QueueScheduler};
        use crate::drain::WeeklyDrain;
        let week = SimDuration::from_weeks(1);
        match self {
            SchedulerKind::Fcfs => Box::new(QueueScheduler::new(Depth::Zero)),
            SchedulerKind::Easy => Box::new(QueueScheduler::new(Depth::One)),
            SchedulerKind::Conservative => Box::new(QueueScheduler::new(Depth::Unbounded)),
            SchedulerKind::WeeklyDrain => Box::new(WeeklyDrain::new(week, machine_cores)),
            SchedulerKind::NaiveDrain => {
                Box::new(WeeklyDrain::new(week, machine_cores).with_predrain_fill(false))
            }
            SchedulerKind::FairshareEasy => Box::new(QueueScheduler::fair_share(week)),
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
pub(crate) fn attribute(now: SimTime, job: &QueuedJob, delayed: WaitCause) -> WaitCause {
    if job.submit_time >= now {
        WaitCause::Immediate
    } else {
        delayed
    }
}

/// Scheduler-side estimate of a job's runtime on a machine with relative
/// `core_speed` (always based on the *estimate*, never the true runtime —
/// schedulers don't get to peek).
pub(crate) fn estimated_runtime(job: &QueuedJob, core_speed: f64) -> SimDuration {
    job.estimate.mul_f64(1.0 / core_speed.max(1e-9))
}

/// The reservation a blocked queue head gets — the "shadow time" at the
/// heart of every backfill variant — and the cores free at it: one pass
/// over the running set's blocks in end order.
///
/// The shadow is the earliest instant at which `cores_needed` cores will be
/// free, given the current free pool and the running jobs' estimated ends
/// (clamped to `now`); `now` if they are free already, [`SimTime::MAX`] if
/// they never will be. The spare count is the free pool plus every running
/// job estimated (clamped) to have ended by the shadow.
///
/// Blocks whose core sum does not reach the need are added whole; only the
/// block where the need is crossed is scanned entry by entry. From the
/// crossing on, entries count while their ends stay at or before the
/// shadow, again a whole block at a time while a block's last end does:
/// the set is ordered by ascending raw end, clamping to `now` keeps that
/// order, and a raw end is at or before a shadow `≥ now` exactly when its
/// clamped end is.
pub(crate) fn shadow(
    now: SimTime,
    free_cores: usize,
    cores_needed: usize,
    running: &RunningSet,
) -> (SimTime, usize) {
    let blocks = &running.blocks;
    let mut free = free_cores;
    let mut b = 0;
    let mut from = 0;
    let shadow = if cores_needed <= free {
        now
    } else {
        loop {
            let Some(blk) = blocks.get(b) else {
                // Unreachable if the job fits the machine (total = free +
                // running).
                return (SimTime::MAX, free);
            };
            if free + blk.cores < cores_needed {
                free += blk.cores;
                b += 1;
                continue;
            }
            let mut i = 0;
            let at = loop {
                let r = blk.jobs[i];
                free += r.cores;
                i += 1;
                if free >= cores_needed {
                    break r.estimated_end.max(now);
                }
            };
            from = i;
            break at;
        }
    };
    // Everything else estimated to end by the shadow: the rest of the
    // crossing block, then whole blocks, then a partial one.
    for blk in &blocks[b..] {
        let tail = &blk.jobs[std::mem::take(&mut from)..];
        match tail.last() {
            None => {}
            Some(last) if last.estimated_end <= shadow => {
                free += if tail.len() == blk.jobs.len() {
                    blk.cores
                } else {
                    tail.iter().map(|r| r.cores).sum()
                };
            }
            Some(_) => {
                free += tail
                    .iter()
                    .take_while(|r| r.estimated_end <= shadow)
                    .map(|r| r.cores)
                    .sum::<usize>();
                break;
            }
        }
    }
    (shadow, free)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_workload::UserId;

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
    fn shadow_is_now_when_free() {
        assert_eq!(
            shadow(SimTime::from_secs(5), 10, 8, &set(&[])),
            (SimTime::from_secs(5), 10)
        );
    }

    #[test]
    fn shadow_waits_for_enough_completions() {
        let r = set(&[running(0, 4, 100), running(1, 4, 50), running(2, 2, 200)]);
        // free 0, need 6: at t=50 free 4; at t=100 free 8 ≥ 6.
        assert_eq!(
            shadow(SimTime::ZERO, 0, 6, &r),
            (SimTime::from_secs(100), 8)
        );
        // need 4: satisfied at first completion.
        assert_eq!(shadow(SimTime::ZERO, 0, 4, &r), (SimTime::from_secs(50), 4));
    }

    #[test]
    fn shadow_counts_every_completion_tied_with_the_crossing() {
        // The crossing entry (id 1) is followed by two more ending at the
        // same instant; all count as free at the shadow, the later one not.
        let r = set(&[
            running(0, 2, 50),
            running(1, 4, 100),
            running(2, 1, 100),
            running(3, 3, 100),
            running(4, 8, 101),
        ]);
        assert_eq!(
            shadow(SimTime::ZERO, 1, 7, &r),
            (SimTime::from_secs(100), 11)
        );
    }

    #[test]
    fn shadow_clamps_past_estimates_to_now() {
        // A running job whose estimate already elapsed (overrun) still counts
        // as ending "now or later", never in the past.
        let now = SimTime::from_secs(100);
        let late = set(&[running(0, 8, 10)]);
        assert_eq!(shadow(now, 0, 8, &late), (now, 8));
        // A head that fits already: the overrun job counts as free now.
        assert_eq!(shadow(now, 9, 8, &late), (now, 17));
    }

    #[test]
    fn shadow_unsatisfiable_is_max_with_everything_free() {
        let r = set(&[running(0, 2, 10)]);
        assert_eq!(shadow(SimTime::ZERO, 1, 10, &r), (SimTime::MAX, 3));
    }

    #[test]
    fn running_set_removes_by_end_and_id() {
        let mut s = set(&[running(0, 4, 100), running(1, 2, 50)]);
        let key = (SimTime::from_secs(50), JobId(1));
        assert!(s.remove((SimTime::from_secs(100), JobId(1))).is_none());
        let r = s.remove(key).expect("present");
        assert_eq!(r.cores, 2);
        assert!(s.remove(key).is_none(), "second remove is a no-op");
        let ends: Vec<_> = s.iter_by_end().map(|r| r.id).collect();
        assert_eq!(ends, vec![JobId(0)]);
    }

    #[test]
    fn estimated_runtime_scales() {
        let j = &Job::batch(
            JobId(0),
            UserId(0),
            ProjectId(0),
            SimTime::ZERO,
            4,
            SimDuration::from_secs(100),
        )
        .with_estimate(SimDuration::from_secs(200));
        let j = QueuedJob::from(j);
        assert_eq!(estimated_runtime(&j, 1.0), SimDuration::from_secs(200));
        assert_eq!(estimated_runtime(&j, 2.0), SimDuration::from_secs(100));
    }

    #[test]
    fn kinds_build_and_name() {
        for k in SchedulerKind::ALL {
            let s = k.build(1024);
            assert!(!k.name().is_empty());
            assert_eq!(s.queue_len(), 0);
        }
        assert_eq!(SchedulerKind::Easy.name(), "easy");
    }
}
