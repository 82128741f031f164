//! Frozen pre-optimization scheduler implementations (the differential-test
//! oracle).
//!
//! These are faithful ports of the linear-scan schedulers as they stood
//! before the indexed running set landed: a flat `Vec` running set with
//! `position()`-based completion removal, per-pass sorting inside the
//! shadow-time computation, and O(n) `VecDeque::remove` per backfill start.
//! The optimized schedulers in the sibling modules must make **bit-identical
//! decisions** — same `Started` jobs, order, estimated ends, and wait causes
//! — and the differential tests (`crates/core/tests/differential.rs`, plus
//! the property tests in this crate) prove it by driving both against
//! identical submit/complete/decide sequences.
//!
//! Nothing here is for production runs: the point of keeping the naive code
//! is that it is *obviously* the old behavior, so any divergence indicts the
//! optimization, not the oracle.

use crate::fairshare::FairShare;
use crate::queue::{attribute, estimated_runtime, BatchScheduler, QueuedJob, RunningJob, Started};
use std::collections::VecDeque;
use tg_des::span::WaitCause;
use tg_des::{SimDuration, SimTime};
use tg_model::Cluster;
use tg_workload::JobId;

/// The original sort-per-call shadow-time computation over a flat slice.
fn earliest_fit_naive(
    now: SimTime,
    free_cores: usize,
    cores_needed: usize,
    running: &[RunningJob],
) -> SimTime {
    if cores_needed <= free_cores {
        return now;
    }
    let mut ends: Vec<(SimTime, usize)> = running
        .iter()
        .map(|r| (r.estimated_end.max(now), r.cores))
        .collect();
    ends.sort_unstable_by_key(|&(t, _)| t);
    let mut free = free_cores;
    for (t, cores) in ends {
        free += cores;
        if free >= cores_needed {
            return t;
        }
    }
    SimTime::MAX
}

fn start_job_naive(
    now: SimTime,
    cluster: &mut Cluster,
    core_speed: f64,
    job: QueuedJob,
    delayed: WaitCause,
    running: &mut Vec<RunningJob>,
    out: &mut Vec<Started>,
) {
    assert!(cluster.acquire(now, job.cores), "caller checked fit");
    let estimated_end = now + estimated_runtime(&job, core_speed);
    let cause = attribute(now, &job, delayed);
    running.push(RunningJob {
        id: job.id,
        cores: job.cores,
        estimated_end,
    });
    out.push(Started {
        job,
        start: now,
        estimated_end,
        cause,
    });
}

fn on_complete_naive(running: &mut Vec<RunningJob>, id: JobId) {
    if let Some(pos) = running.iter().position(|r| r.id == id) {
        running.swap_remove(pos);
    }
}

fn drain_pass_naive(
    queue: &mut VecDeque<QueuedJob>,
    running: &mut Vec<RunningJob>,
    now: SimTime,
    cluster: &mut Cluster,
    core_speed: f64,
    horizon: SimTime,
    started: &mut Vec<Started>,
) {
    let mut i = 0;
    while i < queue.len() {
        let job = &queue[i];
        if cluster.can_fit(job.cores) && now + estimated_runtime(job, core_speed) <= horizon {
            let job = queue.remove(i).expect("index valid");
            start_job_naive(
                now,
                cluster,
                core_speed,
                job,
                WaitCause::DrainWindow,
                running,
                started,
            );
            continue; // same index now holds the next job
        }
        i += 1;
    }
}

#[allow(clippy::too_many_arguments)]
fn easy_pass_naive(
    queue: &mut VecDeque<QueuedJob>,
    running: &mut Vec<RunningJob>,
    now: SimTime,
    cluster: &mut Cluster,
    core_speed: f64,
    started: &mut Vec<Started>,
    backfills: &mut u64,
) {
    // Phase 1: start queue heads FCFS-style while they fit.
    while let Some(head) = queue.front() {
        if !cluster.can_fit(head.cores) {
            break;
        }
        let job = queue.pop_front().expect("peeked");
        start_job_naive(
            now,
            cluster,
            core_speed,
            job,
            WaitCause::AheadInQueue,
            running,
            started,
        );
    }
    let Some(head) = queue.front() else {
        return;
    };
    // Phase 2: reservation for the (blocked) head.
    let shadow = earliest_fit_naive(now, cluster.free_cores(), head.cores, running);
    let free_at_shadow = {
        let mut free = cluster.free_cores();
        for r in running.iter() {
            if r.estimated_end.max(now) <= shadow {
                free += r.cores;
            }
        }
        free
    };
    let head_cores = head.cores;
    let mut extra = free_at_shadow.saturating_sub(head_cores);

    // Phase 3: backfill the rest of the queue in order, removing each start
    // with the original O(n) `VecDeque::remove`.
    let mut i = 1; // skip the head
    while i < queue.len() {
        let job = &queue[i];
        if cluster.can_fit(job.cores) {
            let est_end = now + estimated_runtime(job, core_speed);
            let ok = if est_end <= shadow {
                true
            } else {
                job.cores <= extra
            };
            if ok {
                if est_end > shadow {
                    extra -= job.cores;
                }
                let job = queue.remove(i).expect("index valid");
                start_job_naive(
                    now,
                    cluster,
                    core_speed,
                    job,
                    WaitCause::BackfillHole,
                    running,
                    started,
                );
                *backfills += 1;
                continue; // same index now holds the next job
            }
        }
        i += 1;
    }
}

/// Naive EASY backfill (flat running vec, O(n) queue removal).
#[derive(Debug, Default)]
pub struct NaiveEasy {
    queue: VecDeque<QueuedJob>,
    running: Vec<RunningJob>,
    backfilled: u64,
    outage: Option<SimTime>,
}

impl NaiveEasy {
    /// An empty naive EASY scheduler.
    pub fn new() -> Self {
        NaiveEasy::default()
    }
}

impl BatchScheduler for NaiveEasy {
    fn submit(&mut self, _now: SimTime, job: QueuedJob) {
        self.queue.push_back(job);
    }

    fn on_complete(&mut self, _now: SimTime, done: &Started) {
        on_complete_naive(&mut self.running, done.job.id);
    }

    fn make_decisions(
        &mut self,
        now: SimTime,
        cluster: &mut Cluster,
        core_speed: f64,
        started: &mut Vec<Started>,
    ) {
        if let Some(horizon) = self.outage {
            drain_pass_naive(
                &mut self.queue,
                &mut self.running,
                now,
                cluster,
                core_speed,
                horizon,
                started,
            );
        } else {
            easy_pass_naive(
                &mut self.queue,
                &mut self.running,
                now,
                cluster,
                core_speed,
                started,
                &mut self.backfilled,
            );
        }
    }

    fn queue_len(&self) -> usize {
        self.queue.len()
    }

    fn backfills(&self) -> u64 {
        self.backfilled
    }

    fn drain_notice(&mut self, at: Option<SimTime>) {
        self.outage = at;
    }
}

/// Naive strict FCFS (flat running vec).
#[derive(Debug, Default)]
pub struct NaiveFcfs {
    queue: VecDeque<QueuedJob>,
    running: Vec<RunningJob>,
    outage: Option<SimTime>,
}

impl NaiveFcfs {
    /// An empty naive FCFS scheduler.
    pub fn new() -> Self {
        NaiveFcfs::default()
    }
}

impl BatchScheduler for NaiveFcfs {
    fn submit(&mut self, _now: SimTime, job: QueuedJob) {
        self.queue.push_back(job);
    }

    fn on_complete(&mut self, _now: SimTime, done: &Started) {
        on_complete_naive(&mut self.running, done.job.id);
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
            if let Some(horizon) = self.outage {
                if now + estimated_runtime(head, core_speed) > horizon {
                    break;
                }
            }
            let job = self.queue.pop_front().expect("peeked");
            start_job_naive(
                now,
                cluster,
                core_speed,
                job,
                WaitCause::AheadInQueue,
                &mut self.running,
                started,
            );
        }
    }

    fn queue_len(&self) -> usize {
        self.queue.len()
    }

    fn drain_notice(&mut self, at: Option<SimTime>) {
        self.outage = at;
    }
}

/// Naive conservative backfill (profile rebuilt from a flat running vec).
#[derive(Debug, Default)]
pub struct NaiveConservative {
    queue: VecDeque<QueuedJob>,
    running: Vec<RunningJob>,
}

impl NaiveConservative {
    /// An empty naive conservative scheduler.
    pub fn new() -> Self {
        NaiveConservative::default()
    }
}

impl BatchScheduler for NaiveConservative {
    fn submit(&mut self, _now: SimTime, job: QueuedJob) {
        self.queue.push_back(job);
    }

    fn on_complete(&mut self, _now: SimTime, done: &Started) {
        on_complete_naive(&mut self.running, done.job.id);
    }

    fn make_decisions(
        &mut self,
        now: SimTime,
        cluster: &mut Cluster,
        core_speed: f64,
        started: &mut Vec<Started>,
    ) {
        let mut profile = crate::conservative::Profile::from_running(
            now,
            cluster.free_cores(),
            self.running.iter().copied(),
        );
        let mut remaining = VecDeque::with_capacity(self.queue.len());
        for job in self.queue.drain(..) {
            let dur = estimated_runtime(&job, core_speed);
            let slot = profile.find_slot(now, job.cores, dur);
            if slot == now {
                assert!(cluster.acquire(now, job.cores), "profile said free");
                profile.reserve(now, dur, job.cores);
                let estimated_end = now + dur;
                let cause = attribute(now, &job, WaitCause::AheadInQueue);
                self.running.push(RunningJob {
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
            } else {
                if slot != SimTime::MAX {
                    profile.reserve(slot, dur, job.cores);
                }
                remaining.push_back(job);
            }
        }
        self.queue = remaining;
    }

    fn queue_len(&self) -> usize {
        self.queue.len()
    }
}

/// Naive weekly-drain policy over `easy_pass_naive`.
#[derive(Debug)]
pub struct NaiveWeeklyDrain {
    normal: VecDeque<QueuedJob>,
    heroes: VecDeque<QueuedJob>,
    running: Vec<RunningJob>,
    period: SimDuration,
    hero_threshold: usize,
    active_drain: Option<SimTime>,
    predrain_fill: bool,
    backfilled: u64,
    drains_done: u64,
    last_disarm: Option<SimTime>,
}

impl NaiveWeeklyDrain {
    /// A naive drain scheduler with the same parameters as
    /// [`crate::drain::WeeklyDrain`].
    pub fn new(period: SimDuration, machine_cores: usize) -> Self {
        assert!(!period.is_zero(), "drain period must be positive");
        assert!(machine_cores > 0, "machine must have cores");
        NaiveWeeklyDrain {
            normal: VecDeque::new(),
            heroes: VecDeque::new(),
            running: Vec::new(),
            period,
            hero_threshold: ((machine_cores as f64) * crate::drain::DEFAULT_HERO_FRACTION).ceil()
                as usize,
            active_drain: None,
            predrain_fill: true,
            backfilled: 0,
            drains_done: 0,
            last_disarm: None,
        }
    }

    /// Enable/disable estimate-bounded pre-drain filling.
    pub fn with_predrain_fill(mut self, fill: bool) -> Self {
        self.predrain_fill = fill;
        self
    }

    fn next_boundary(&self, now: SimTime) -> SimTime {
        let idx = now.as_micros() / self.period.as_micros();
        SimTime::from_micros((idx + 1) * self.period.as_micros())
    }
}

impl BatchScheduler for NaiveWeeklyDrain {
    fn submit(&mut self, now: SimTime, job: QueuedJob) {
        if job.cores >= self.hero_threshold {
            self.heroes.push_back(job);
            if self.active_drain.is_none() {
                self.active_drain = Some(self.next_boundary(now));
            }
        } else {
            self.normal.push_back(job);
        }
    }

    fn on_complete(&mut self, _now: SimTime, done: &Started) {
        on_complete_naive(&mut self.running, done.job.id);
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
                    easy_pass_naive(
                        &mut self.normal,
                        &mut self.running,
                        now,
                        cluster,
                        core_speed,
                        started,
                        &mut self.backfilled,
                    );
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
                    if !self.predrain_fill {
                        return;
                    }
                    let mut i = 0;
                    while i < self.normal.len() {
                        let job = &self.normal[i];
                        let est_end = now + estimated_runtime(job, core_speed);
                        if cluster.can_fit(job.cores) && est_end <= drain {
                            let job = self.normal.remove(i).expect("index valid");
                            start_job_naive(
                                now,
                                cluster,
                                core_speed,
                                job,
                                WaitCause::DrainWindow,
                                &mut self.running,
                                started,
                            );
                        } else {
                            i += 1;
                        }
                    }
                    return;
                }
                Some(_) => {
                    while let Some(hero) = self.heroes.front() {
                        if !cluster.can_fit(hero.cores) {
                            break;
                        }
                        let job = self.heroes.pop_front().expect("peeked");
                        start_job_naive(
                            now,
                            cluster,
                            core_speed,
                            job,
                            WaitCause::DrainWindow,
                            &mut self.running,
                            started,
                        );
                    }
                    if self.heroes.is_empty() {
                        self.active_drain = None;
                        self.drains_done += 1;
                        self.last_disarm = Some(now);
                        continue;
                    }
                    return;
                }
            }
        }
    }

    fn queue_len(&self) -> usize {
        self.normal.len() + self.heroes.len()
    }

    fn next_wakeup(&self, now: SimTime) -> Option<SimTime> {
        match self.active_drain {
            Some(d) if d > now => Some(d),
            _ => None,
        }
    }

    fn backfills(&self) -> u64 {
        self.backfilled
    }

    fn drains(&self) -> u64 {
        self.drains_done
    }
}

/// Naive fair-share EASY (flat running vec, linear charge-info scan).
#[derive(Debug)]
pub struct NaiveFairshareEasy {
    queue: VecDeque<QueuedJob>,
    running: Vec<RunningJob>,
    charge_info: Vec<(JobId, usize, SimTime, tg_workload::ProjectId)>,
    shares: FairShare,
    backfilled: u64,
}

impl NaiveFairshareEasy {
    /// A naive fair-share EASY scheduler with the given decay half-life.
    pub fn new(half_life: SimDuration) -> Self {
        NaiveFairshareEasy {
            queue: VecDeque::new(),
            running: Vec::new(),
            charge_info: Vec::new(),
            shares: FairShare::new(half_life),
            backfilled: 0,
        }
    }

    fn rerank(&mut self, now: SimTime) {
        let shares = &self.shares;
        let mut jobs: Vec<QueuedJob> = self.queue.drain(..).collect();
        jobs.sort_by(|a, b| {
            let pa = shares.priority(a.project, a.submit_time, now);
            let pb = shares.priority(b.project, b.submit_time, now);
            pb.partial_cmp(&pa).expect("priorities are finite")
        });
        self.queue = jobs.into();
    }
}

impl BatchScheduler for NaiveFairshareEasy {
    fn submit(&mut self, _now: SimTime, job: QueuedJob) {
        self.queue.push_back(job);
    }

    fn on_complete(&mut self, now: SimTime, done: &Started) {
        let id = done.job.id;
        on_complete_naive(&mut self.running, id);
        if let Some(pos) = self.charge_info.iter().position(|&(jid, ..)| jid == id) {
            let (_, cores, start, project) = self.charge_info.swap_remove(pos);
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
        easy_pass_naive(
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
                .push((s.job.id, s.job.cores, now, s.job.project));
        }
    }

    fn queue_len(&self) -> usize {
        self.queue.len()
    }

    fn backfills(&self) -> u64 {
        self.backfilled
    }
}
