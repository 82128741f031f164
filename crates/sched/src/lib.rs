//! # tg-sched — batch, capability, cross-site, and reconfigurable scheduling
//!
//! The queueing dynamics that shape every observable the modality-measurement
//! pipeline reads. Four families:
//!
//! * **Per-site batch schedulers** (all implementing [`BatchScheduler`]):
//!   [`fcfs::Fcfs`] — strict first-come-first-served; [`easy::EasyBackfill`]
//!   — aggressive backfilling with one reservation for the queue head;
//!   [`conservative::ConservativeBackfill`] — a reservation for every queued
//!   job; [`drain::WeeklyDrain`] — the capability policy that force-drains
//!   the machine on a weekly boundary and then runs full-machine "hero" jobs
//!   back-to-back.
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
//! which keeps them unit-testable without a simulator.
//!
//! ```
//! use tg_des::{SimDuration, SimTime};
//! use tg_model::Cluster;
//! use tg_sched::{BatchScheduler, SchedulerKind};
//! use tg_workload::{Job, JobId, ProjectId, UserId};
//!
//! let mut sched = SchedulerKind::Easy.build(64);
//! let mut cluster = Cluster::new(SimTime::ZERO, 64);
//! let job = |id, cores, secs| {
//!     Job::batch(JobId(id), UserId(0), ProjectId(0), SimTime::ZERO, cores,
//!                SimDuration::from_secs(secs))
//! };
//! sched.submit(SimTime::ZERO, job(0, 48, 3_600)); // wide, long
//! sched.submit(SimTime::ZERO, job(1, 32, 60));    // blocked head → reservation
//! sched.submit(SimTime::ZERO, job(2, 16, 600));   // backfills around it
//! let started = sched.make_decisions(SimTime::ZERO, &mut cluster, 1.0);
//! assert_eq!(started.len(), 2); // jobs 0 and 2; job 1 holds its reservation
//! assert_eq!(sched.queue_len(), 1);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub(crate) mod backfill_queue;
pub mod coalloc;
pub mod conservative;
pub mod drain;
pub mod easy;
pub mod fairshare;
pub mod fairshare_easy;
pub mod fcfs;
pub mod meta;
pub mod queue;
pub mod reconf;
pub mod reference;
pub mod retry;

pub use coalloc::{plan_coallocation, CoallocPlan, CoallocRequest};
pub use conservative::{ConservativeBackfill, Profile};
pub use drain::WeeklyDrain;
pub use easy::EasyBackfill;
pub use fairshare_easy::FairshareEasy;
pub use fcfs::Fcfs;
pub use meta::{DataContext, MetaPolicy, SiteView};
pub use queue::{BatchScheduler, SchedulerKind, Started};
pub use reconf::{RcDecision, RcPolicy};
pub use retry::{RetryBook, RetryPolicy};
