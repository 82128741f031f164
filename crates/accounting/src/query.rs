//! Aggregation queries over the accounting database.
//!
//! Two consumers: usage *reports* (group-by sums and time-bucketed series)
//! and the modality *classifier* (per-user behavioural summaries —
//! [`UserSummary`] is its feature vector).

use crate::db::AccountingDb;
use crate::record::JobRecord;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tg_des::SimDuration;
#[cfg(test)]
use tg_des::SimTime;
use tg_workload::{SubmitInterface, UserId};

/// Generic group-by-and-sum. Returns a deterministic (ordered) map.
pub fn sum_by<K: Ord, T>(
    items: impl IntoIterator<Item = T>,
    key: impl Fn(&T) -> K,
    val: impl Fn(&T) -> f64,
) -> BTreeMap<K, f64> {
    let mut out = BTreeMap::new();
    for item in items {
        *out.entry(key(&item)).or_insert(0.0) += val(&item);
    }
    out
}

/// Named alias for report tables.
pub type GroupSums<K> = BTreeMap<K, f64>;

/// Sum `val` over jobs into fixed-width time buckets keyed by completion
/// time. Returns per-bucket sums, bucket 0 first.
pub fn bucket_job_series(
    jobs: &[JobRecord],
    width: SimDuration,
    val: impl Fn(&JobRecord) -> f64,
) -> Vec<f64> {
    let mut buckets = tg_des::stats::TimeBuckets::new(width);
    for j in jobs {
        buckets.add(j.end, val(j));
    }
    buckets.sums().to_vec()
}

/// Per-user behavioural summary — the classifier's feature vector.
///
/// Every field is derivable from production accounting records alone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserSummary {
    /// The account.
    pub user: UserId,
    /// Completed jobs.
    pub jobs: u64,
    /// Total core-hours.
    pub core_hours: f64,
    /// Mean cores per job.
    pub mean_cores: f64,
    /// Largest core count seen.
    pub max_cores: usize,
    /// Mean wall-clock hours per job.
    pub mean_wall_hours: f64,
    /// Fraction of jobs shorter than 30 minutes.
    pub short_frac: f64,
    /// Fraction of jobs at 8 cores or fewer.
    pub small_frac: f64,
    /// Jobs per day over the account's active span (first submit → last end).
    pub jobs_per_day: f64,
    /// Largest set of jobs submitted at the same instant (batch submissions:
    /// ensembles and workflow engines leave this fingerprint).
    pub max_simultaneous_submits: u64,
    /// Fraction of jobs submitted in same-instant batches of ≥ 5.
    pub batched_frac: f64,
    /// Of the largest same-instant batch, whether all members had identical
    /// core counts (ensembles: yes; workflow stage-ins: usually no).
    pub largest_batch_uniform: bool,
    /// Jobs carrying a gateway end-user attribute.
    pub gateway_jobs: u64,
    /// Jobs submitted through a workflow-engine interface.
    pub engine_jobs: u64,
    /// Jobs that ran on reconfigurable hardware.
    pub rc_jobs: u64,
    /// Login sessions.
    pub sessions: u64,
    /// Total session hours.
    pub session_hours: f64,
    /// Data transfers initiated.
    pub transfers: u64,
    /// Total MB transferred.
    pub transfer_mb: f64,
}

/// Count and database-order sum of one per-user quantity. The sum starts
/// at `-0.0`, the value `Iterator::sum` folds from, so a tally equals the
/// filtered `.sum()` it replaces bit for bit, the empty sum included.
struct Tally {
    n: u64,
    sum: f64,
}

impl Default for Tally {
    fn default() -> Self {
        Tally { n: 0, sum: -0.0 }
    }
}

impl Tally {
    fn add(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
    }
}

/// One account's records, gathered in a single pass per stream.
#[derive(Default)]
struct UserRecords<'a> {
    jobs: Vec<&'a JobRecord>,
    /// Login sessions and their hours.
    sessions: Tally,
    /// Transfers and their MB.
    transfers: Tally,
}

/// Build summaries for every user appearing in the database, ordered by id.
///
/// Linear in the record count: each stream is read once, and the gateway
/// attributes are indexed by job id up front.
pub fn user_summaries(db: &AccountingDb) -> Vec<UserSummary> {
    let gateway = db.gateway_job_ids();
    let mut by_user: BTreeMap<UserId, UserRecords> = BTreeMap::new();
    for j in &db.jobs {
        by_user.entry(j.user).or_default().jobs.push(j);
    }
    // Users with only sessions/transfers still get a summary.
    for s in &db.sessions {
        let hours = s.logout.saturating_since(s.login).as_hours_f64();
        by_user.entry(s.user).or_default().sessions.add(hours);
    }
    for t in &db.transfers {
        by_user.entry(t.user).or_default().transfers.add(t.mb);
    }

    let mut out = Vec::with_capacity(by_user.len());
    for (user, records) in by_user {
        let (mut jobs, sessions, transfers) = (records.jobs, records.sessions, records.transfers);
        jobs.sort_by_key(|j| (j.submit, j.job));
        let n = jobs.len() as u64;
        let core_hours: f64 = jobs.iter().map(|j| j.core_hours()).sum();
        let mean_cores = if n > 0 {
            jobs.iter().map(|j| j.cores as f64).sum::<f64>() / n as f64
        } else {
            0.0
        };
        let max_cores = jobs.iter().map(|j| j.cores).max().unwrap_or(0);
        let mean_wall_hours = if n > 0 {
            jobs.iter().map(|j| j.wall().as_hours_f64()).sum::<f64>() / n as f64
        } else {
            0.0
        };
        let short_frac = frac(&jobs, |j| j.wall() < SimDuration::from_mins(30));
        let small_frac = frac(&jobs, |j| j.cores <= 8);

        // Same-instant submission batches.
        let mut max_batch = 0u64;
        let mut batched_jobs = 0u64;
        let mut largest_batch_uniform = false;
        let mut i = 0;
        while i < jobs.len() {
            let t = jobs[i].submit;
            let mut k = i;
            while k < jobs.len() && jobs[k].submit == t {
                k += 1;
            }
            let run = (k - i) as u64;
            if run >= 5 {
                batched_jobs += run;
            }
            if run > max_batch {
                max_batch = run;
                let first_cores = jobs[i].cores;
                largest_batch_uniform = jobs[i..k].iter().all(|j| j.cores == first_cores);
            }
            i = k;
        }
        let batched_frac = if n > 0 {
            batched_jobs as f64 / n as f64
        } else {
            0.0
        };

        // Rate over the active span, floored at one day so sparse accounts
        // don't read as high-rate (a single afternoon of activity is not a
        // 24-jobs-per-day account).
        let span_days = if n > 0 {
            let first = jobs.first().expect("n>0").submit;
            let last = jobs.iter().map(|j| j.end).max().expect("n>0");
            (last.saturating_since(first).as_days_f64()).max(1.0)
        } else {
            1.0
        };

        let gateway_jobs = jobs.iter().filter(|j| gateway.contains(&j.job)).count() as u64;
        let engine_jobs = jobs
            .iter()
            .filter(|j| j.interface == SubmitInterface::WorkflowEngine)
            .count() as u64;
        let rc_jobs = jobs.iter().filter(|j| j.used_hw).count() as u64;

        out.push(UserSummary {
            user,
            jobs: n,
            core_hours,
            mean_cores,
            max_cores,
            mean_wall_hours,
            short_frac,
            small_frac,
            jobs_per_day: n as f64 / span_days,
            max_simultaneous_submits: max_batch,
            batched_frac,
            largest_batch_uniform,
            gateway_jobs,
            engine_jobs,
            rc_jobs,
            sessions: sessions.n,
            session_hours: sessions.sum,
            transfers: transfers.n,
            transfer_mb: transfers.sum,
        });
    }
    out
}

fn frac(jobs: &[&JobRecord], pred: impl Fn(&JobRecord) -> bool) -> f64 {
    if jobs.is_empty() {
        return 0.0;
    }
    jobs.iter().filter(|j| pred(j)).count() as f64 / jobs.len() as f64
}

/// Mean queue wait over a set of job records, in seconds.
pub fn mean_wait_secs(jobs: &[JobRecord]) -> f64 {
    if jobs.is_empty() {
        return 0.0;
    }
    jobs.iter().map(|j| j.wait().as_secs_f64()).sum::<f64>() / jobs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{GatewayAttribute, SessionRecord, TransferRecord};
    use tg_model::SiteId;
    use tg_workload::{GatewayId, JobId, ProjectId, UserId};

    fn job(id: usize, user: usize, submit: u64, start: u64, end: u64, cores: usize) -> JobRecord {
        JobRecord {
            job: JobId(id),
            user: UserId(user),
            project: ProjectId(0),
            site: SiteId(0),
            submit: SimTime::from_secs(submit),
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(end),
            cores,
            interface: SubmitInterface::CommandLine,
            used_hw: false,
            input_mb: 0.0,
            output_mb: 0.0,
        }
    }

    #[test]
    fn sum_by_groups_and_orders() {
        let items = vec![(1, 2.0), (2, 3.0), (1, 5.0)];
        let sums = sum_by(items, |&(k, _)| k, |&(_, v)| v);
        assert_eq!(sums.get(&1), Some(&7.0));
        assert_eq!(sums.get(&2), Some(&3.0));
        assert_eq!(sums.keys().copied().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn bucket_series_by_completion() {
        let jobs = vec![job(0, 0, 0, 0, 100, 2), job(1, 0, 0, 0, 100_000, 4)];
        let series = bucket_job_series(&jobs, SimDuration::from_days(1), |j| j.cores as f64);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0], 2.0);
        assert_eq!(series[1], 4.0);
    }

    #[test]
    fn summary_batch_detection() {
        let mut db = AccountingDb::new();
        // 6 jobs at the same instant, identical cores → ensemble fingerprint.
        for i in 0..6 {
            db.add_job(job(i, 1, 1000, 1100, 2000, 4));
        }
        // A lone job later.
        db.add_job(job(10, 1, 9000, 9100, 9500, 16));
        let s = &user_summaries(&db)[0];
        assert_eq!(s.user, UserId(1));
        assert_eq!(s.jobs, 7);
        assert_eq!(s.max_simultaneous_submits, 6);
        assert!(s.largest_batch_uniform);
        assert!((s.batched_frac - 6.0 / 7.0).abs() < 1e-9);
        assert_eq!(s.max_cores, 16);
    }

    #[test]
    fn summary_nonuniform_batch() {
        let mut db = AccountingDb::new();
        for i in 0..5 {
            db.add_job(job(i, 1, 1000, 1100, 2000, 1 + i)); // varying cores
        }
        let s = &user_summaries(&db)[0];
        assert_eq!(s.max_simultaneous_submits, 5);
        assert!(!s.largest_batch_uniform);
    }

    #[test]
    fn summary_gateway_and_engine_and_rc_counts() {
        let mut db = AccountingDb::new();
        db.add_job(job(0, 2, 0, 10, 100, 1));
        db.add_job(JobRecord {
            interface: SubmitInterface::WorkflowEngine,
            ..job(1, 2, 0, 10, 100, 1)
        });
        db.add_job(JobRecord {
            used_hw: true,
            ..job(2, 2, 0, 10, 100, 1)
        });
        db.add_gateway_attr(GatewayAttribute {
            gateway: GatewayId(0),
            job: JobId(0),
            end_user: 7,
        });
        let s = &user_summaries(&db)[0];
        assert_eq!(s.gateway_jobs, 1);
        assert_eq!(s.engine_jobs, 1);
        assert_eq!(s.rc_jobs, 1);
    }

    #[test]
    fn summary_sessions_and_transfers() {
        let mut db = AccountingDb::new();
        db.add_session(SessionRecord {
            user: UserId(3),
            site: SiteId(0),
            login: SimTime::ZERO,
            logout: SimTime::from_hours(2),
        });
        db.add_transfer(TransferRecord {
            user: UserId(3),
            project: ProjectId(0),
            src: SiteId(0),
            dst: SiteId(1),
            mb: 500.0,
            start: SimTime::ZERO,
            end: SimTime::from_secs(10),
        });
        let s = &user_summaries(&db)[0];
        assert_eq!(s.user, UserId(3));
        assert_eq!(s.jobs, 0);
        assert_eq!(s.sessions, 1);
        assert!((s.session_hours - 2.0).abs() < 1e-9);
        assert_eq!(s.transfers, 1);
        assert!((s.transfer_mb - 500.0).abs() < 1e-9);
    }

    #[test]
    fn summary_rate_and_fractions() {
        let mut db = AccountingDb::new();
        // Two jobs over exactly one day; one short/small, one long/wide.
        db.add_job(job(0, 4, 0, 0, 600, 2)); // 10 min, 2 cores
        db.add_job(job(1, 4, 0, 1000, 86_400, 64)); // long, wide
        let s = &user_summaries(&db)[0];
        assert!((s.jobs_per_day - 2.0).abs() < 1e-9);
        assert!((s.short_frac - 0.5).abs() < 1e-9);
        assert!((s.small_frac - 0.5).abs() < 1e-9);
        assert_eq!(s.max_cores, 64);
    }

    #[test]
    fn mean_wait_over_records() {
        let jobs = vec![job(0, 0, 0, 100, 200, 1), job(1, 0, 0, 300, 400, 1)];
        assert!((mean_wait_secs(&jobs) - 200.0).abs() < 1e-9);
        assert_eq!(mean_wait_secs(&[]), 0.0);
    }
}
