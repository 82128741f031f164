//! # tg-sched — batch, capability, cross-site, and reconfigurable scheduling
//!
//! The queueing dynamics that shape every observable the modality-measurement
//! pipeline reads. Four families:
//!
//! * **Per-site batch schedulers** (all implementing [`BatchScheduler`]):
//!   one queue core, [`batch::QueueScheduler`], over an arrival- or
//!   fair-share-ordered queue, at a reservation [`batch::Depth`] of zero
//!   (strict first-come-first-served), one (EASY: aggressive backfilling
//!   with one reservation for the queue head, [`easy`]) or unbounded
//!   (conservative: a reservation for every queued job, [`conservative`]);
//!   and [`drain::WeeklyDrain`] — the capability policy that force-drains
//!   the machine on a weekly boundary and then runs full-machine "hero" jobs
//!   back-to-back, around one EASY core.
//! * **Fair-share priority** ([`fairshare`]) — decayed-usage priorities that
//!   any queue-ordering policy can consume.
//! * **Metascheduling** ([`meta`]) — site selection for jobs that don't pin a
//!   site: random, least-loaded, shortest-ETA, and data-aware policies.
//! * **Reconfigurable-task scheduling** ([`reconf`]) — the extension the
//!   calibration bands call out: an RC-blind baseline that places hardware
//!   tasks like ordinary jobs, and an RC-aware policy that prices
//!   configuration reuse, bitstream caching, and eviction before placing,
//!   and falls back to the software implementation when hardware setup
//!   doesn't pay.
//!
//! Schedulers are *driven*: the simulation loop in `tg-core` calls
//! [`BatchScheduler::submit`] / [`BatchScheduler::on_complete`] and then
//! [`BatchScheduler::make_decisions`]; schedulers never own the event queue,
//! which keeps them unit-testable without a simulator. Nor do they own
//! jobs: they queue a [`QueuedJob`] view of each and hand it back in a
//! [`Started`] record, while the job itself stays with the driver. The
//! driver keeps that record with the running job and passes it back to
//! `on_complete` when the job completes or a fault kills it, so a scheduler
//! keeps no per-job table of its running work beyond its end-ordered set.
//!
//! ```
//! use tg_des::{SimDuration, SimTime};
//! use tg_model::Cluster;
//! use tg_sched::{BatchScheduler, QueuedJob, SchedulerKind};
//! use tg_workload::{Job, JobId, ProjectId, UserId};
//!
//! let mut sched = SchedulerKind::Easy.build(64);
//! let mut cluster = Cluster::new(SimTime::ZERO, 64);
//! let job = |id, cores, secs| {
//!     QueuedJob::from(&Job::batch(JobId(id), UserId(0), ProjectId(0), SimTime::ZERO,
//!                                 cores, SimDuration::from_secs(secs)))
//! };
//! sched.submit(SimTime::ZERO, job(0, 48, 3_600)); // wide, long
//! sched.submit(SimTime::ZERO, job(1, 32, 60));    // blocked head → reservation
//! sched.submit(SimTime::ZERO, job(2, 16, 600));   // backfills around it
//! let mut started = Vec::new();
//! sched.make_decisions(SimTime::ZERO, &mut cluster, 1.0, &mut started);
//! assert_eq!(started.len(), 2); // jobs 0 and 2; job 1 holds its reservation
//! assert_eq!(sched.queue_len(), 1);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub(crate) mod backfill_queue;
pub mod batch;
pub mod coalloc;
pub mod conservative;
pub mod drain;
pub mod easy;
pub mod fairshare;
pub mod meta;
#[cfg(test)]
mod model_tests;
pub mod queue;
pub mod reconf;
pub mod reference;
pub mod retry;

pub use batch::{Depth, QueueScheduler};
pub use coalloc::{plan_coallocation, CoallocPlan, CoallocRequest};
pub use conservative::Profile;
pub use drain::WeeklyDrain;
pub use meta::{DataContext, MetaPolicy, SiteView};
pub use queue::{BatchScheduler, QueuedJob, SchedulerKind, Started};
pub use reconf::{RcDecision, RcPolicy};
pub use retry::RetryPolicy;
