//! Differential property tests: the optimized schedulers (indexed running
//! set + compaction-drain backfill) must make **bit-identical** decisions to
//! the retained naive implementations in `tg_sched::reference` — same
//! `Started` jobs in the same order with the same estimated ends and wait
//! causes, and the same observability counters — when driven through
//! identical submit/complete/decide (and drain-notice) sequences over
//! random queues.

use proptest::prelude::*;
use tg_des::span::WaitCause;
use tg_des::{SimDuration, SimTime};
use tg_model::Cluster;
use tg_sched::{BatchScheduler, QueuedJob, SchedulerKind, Started};
use tg_workload::{Job, JobId, ProjectId, UserId};

#[derive(Debug, Clone, Copy)]
struct JobSpec {
    cores: usize,
    runtime_s: u64,
    estimate_factor_x10: u64,
    gap_s: u64,
}

fn arb_jobs() -> impl Strategy<Value = Vec<JobSpec>> {
    prop::collection::vec(
        (1usize..96, 10u64..5_000, 10u64..40, 0u64..600).prop_map(
            |(cores, runtime_s, estimate_factor_x10, gap_s)| JobSpec {
                cores,
                runtime_s,
                estimate_factor_x10,
                gap_s,
            },
        ),
        1..60,
    )
}

/// The full decision record of one episode: every `Started` field that the
/// simulation consumes, in emission order, plus the counters.
#[derive(Debug, Clone, PartialEq)]
struct Episode {
    starts: Vec<(JobId, SimTime, SimTime, WaitCause)>,
    backfills: u64,
    drains: u64,
}

/// How an episode arms drain notices: before every `every`-th submission,
/// with the horizon `lead_s` seconds from that instant (zero: the horizon
/// is the submission instant; negative: already past), lifted before the
/// next submission.
#[derive(Debug, Clone, Copy)]
struct Notices {
    every: usize,
    lead_s: i64,
}

impl Notices {
    /// A notice one hour ahead before every `every`-th submission.
    fn hour_ahead(every: usize) -> Option<Notices> {
        Some(Notices {
            every,
            lead_s: 3600,
        })
    }

    fn horizon(&self, now: SimTime) -> SimTime {
        let lead = SimDuration::from_secs(self.lead_s.unsigned_abs());
        if self.lead_s < 0 {
            now - lead
        } else {
            now + lead
        }
    }
}

/// Drive `sched` through the episode `specs` describes, recording every
/// decision. `notices`: arm drain notices as [`Notices`] says, exercising
/// the drain pass.
fn drive(
    sched: Box<dyn BatchScheduler>,
    specs: &[JobSpec],
    machine: usize,
    notices: Option<Notices>,
) -> Episode {
    drive_batched(sched, specs, machine, notices, 1)
}

/// [`drive`] with submissions in batches of `batch` jobs: each batch
/// arrives at one instant (its first job's gap), and the scheduler makes
/// one decision pass after the whole batch, so up to `batch` jobs wait
/// unindexed — as behind a site that is dark while work arrives.
fn drive_batched(
    mut sched: Box<dyn BatchScheduler>,
    specs: &[JobSpec],
    machine: usize,
    notices: Option<Notices>,
    batch: usize,
) -> Episode {
    let mut cluster = Cluster::new(SimTime::ZERO, machine);
    let mut running: Vec<(SimTime, Started)> = Vec::new();
    let mut episode = Episode {
        starts: Vec::new(),
        backfills: 0,
        drains: 0,
    };
    let mut now = SimTime::ZERO;

    fn decide(
        sched: &mut Box<dyn BatchScheduler>,
        cluster: &mut Cluster,
        running: &mut Vec<(SimTime, Started)>,
        episode: &mut Episode,
        now: SimTime,
        specs: &[JobSpec],
    ) {
        let mut started = Vec::new();
        sched.make_decisions(now, cluster, 1.0, &mut started);
        for s in started {
            // The view carries no runtime: the job's spec does.
            let runtime = SimDuration::from_secs(specs[s.job.id.index()].runtime_s);
            running.push((now + runtime, s));
            episode
                .starts
                .push((s.job.id, now, s.estimated_end, s.cause));
        }
    }

    for (n, spec) in specs.iter().enumerate() {
        let first_of_batch = n % batch == 0;
        if first_of_batch {
            now += SimDuration::from_secs(spec.gap_s);
        }
        if let Some(notices) = notices {
            if n % notices.every == notices.every - 1 {
                sched.drain_notice(Some(notices.horizon(now)));
            } else {
                sched.drain_notice(None);
            }
        }
        loop {
            running.sort_by_key(|&(end, ..)| end);
            let Some(&(end, done)) = running.first() else {
                break;
            };
            // Jobs finish only between batches.
            if end > now || !first_of_batch {
                break;
            }
            running.remove(0);
            cluster.release(end, done.job.cores);
            sched.on_complete(end, &done);
            decide(
                &mut sched,
                &mut cluster,
                &mut running,
                &mut episode,
                end,
                specs,
            );
        }
        let cores = spec.cores.min(machine);
        let job = Job::batch(
            JobId(n),
            UserId(0),
            ProjectId(n % 5),
            now,
            cores,
            SimDuration::from_secs(spec.runtime_s),
        )
        .with_estimate(SimDuration::from_secs(
            spec.runtime_s * spec.estimate_factor_x10 / 10,
        ));
        sched.submit(now, QueuedJob::from(&job));
        if n % batch == batch - 1 || n == specs.len() - 1 {
            decide(
                &mut sched,
                &mut cluster,
                &mut running,
                &mut episode,
                now,
                specs,
            );
        }
    }
    // Drain with any armed notice lifted (notices past the horizon would
    // wedge the queue forever), re-deciding immediately as the simulation
    // driver does on recovery.
    sched.drain_notice(None);
    decide(
        &mut sched,
        &mut cluster,
        &mut running,
        &mut episode,
        now,
        specs,
    );
    let mut guard = 0;
    while sched.queue_len() > 0 || !running.is_empty() {
        guard += 1;
        assert!(guard < 10_000, "scheduler failed to drain");
        running.sort_by_key(|&(end, ..)| end);
        let next_completion = running.first().map(|&(end, ..)| end);
        let next = match (next_completion, sched.next_wakeup(now)) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => panic!("queued jobs but nothing will wake the scheduler"),
        };
        now = next.max(now);
        if let Some(&(end, done)) = running.first() {
            if end <= now {
                running.remove(0);
                cluster.release(now, done.job.cores);
                sched.on_complete(now, &done);
            }
        }
        decide(
            &mut sched,
            &mut cluster,
            &mut running,
            &mut episode,
            now,
            specs,
        );
    }
    episode.backfills = sched.backfills();
    episode.drains = sched.drains();
    episode
}

fn assert_identical(kind: SchedulerKind, specs: &[JobSpec], machine: usize) {
    let optimized = drive(kind.build(machine), specs, machine, None);
    let naive = drive(kind.build_reference(machine), specs, machine, None);
    assert_eq!(optimized, naive, "{} diverged from naive", kind.name());
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    #[test]
    fn fcfs_matches_naive(specs in arb_jobs()) {
        assert_identical(SchedulerKind::Fcfs, &specs, 128);
    }

    #[test]
    fn easy_matches_naive(specs in arb_jobs()) {
        assert_identical(SchedulerKind::Easy, &specs, 128);
    }

    #[test]
    fn conservative_matches_naive(specs in arb_jobs()) {
        assert_identical(SchedulerKind::Conservative, &specs, 128);
    }

    #[test]
    fn weekly_drain_matches_naive(specs in arb_jobs()) {
        assert_identical(SchedulerKind::WeeklyDrain, &specs, 128);
    }

    #[test]
    fn naive_drain_matches_naive(specs in arb_jobs()) {
        assert_identical(SchedulerKind::NaiveDrain, &specs, 128);
    }

    #[test]
    fn fairshare_easy_matches_naive(specs in arb_jobs()) {
        assert_identical(SchedulerKind::FairshareEasy, &specs, 128);
    }

    /// Outage-notice drain passes (the scan-then-compact rewrite of
    /// `drain_pass`) also match the naive per-job-removal loop.
    #[test]
    fn easy_matches_naive_under_drain_notices(specs in arb_jobs()) {
        let optimized = drive(SchedulerKind::Easy.build(128), &specs, 128, Notices::hour_ahead(3));
        let naive =
            drive(SchedulerKind::Easy.build_reference(128), &specs, 128, Notices::hour_ahead(3));
        prop_assert_eq!(optimized, naive);
    }

    #[test]
    fn fcfs_matches_naive_under_drain_notices(specs in arb_jobs()) {
        let optimized = drive(SchedulerKind::Fcfs.build(128), &specs, 128, Notices::hour_ahead(4));
        let naive =
            drive(SchedulerKind::Fcfs.build_reference(128), &specs, 128, Notices::hour_ahead(4));
        prop_assert_eq!(optimized, naive);
    }

    /// Notices whose horizon is the deciding instant itself or already
    /// past it: a pass at the horizon may start only zero-length
    /// estimates, one past it nothing, and the decisions still match.
    #[test]
    fn drain_notices_at_or_past_the_horizon_match_naive(
        specs in arb_jobs(),
        every in 1usize..=4,
        lead_s in -7200i64..=0,
    ) {
        for lead_s in [0, lead_s] {
            let notices = Some(Notices { every, lead_s });
            for kind in [SchedulerKind::Easy, SchedulerKind::Fcfs] {
                let optimized = drive(kind.build(128), &specs, 128, notices);
                let naive = drive(kind.build_reference(128), &specs, 128, notices);
                prop_assert_eq!(optimized, naive, "{} diverged (lead {} s)", kind.name(), lead_s);
            }
        }
    }

    /// Batches of 1–8 submissions before one decision pass: the pass finds
    /// several jobs staged at once (EASY's idle-queue start path), with and
    /// without drain notices, for every scheduler kind.
    #[test]
    fn batched_submits_match_naive(specs in arb_jobs(), batch in 1usize..=8) {
        for kind in SchedulerKind::ALL {
            for notices in [None, Notices::hour_ahead(3)] {
                let optimized = drive_batched(kind.build(128), &specs, 128, notices, batch);
                let naive =
                    drive_batched(kind.build_reference(128), &specs, 128, notices, batch);
                prop_assert_eq!(optimized, naive, "{} diverged (batch {})", kind.name(), batch);
            }
        }
    }
}
