//! Usage reports — the tables the measurement program publishes.
//!
//! Reports are computed from the accounting database plus a labeling (either
//! ground truth, to characterize the workload, or the classifier's output,
//! to show what the deployed measurement would report).

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;
use tg_accounting::{AccountingDb, ChargePolicy};
use tg_des::metrics::MetricsSnapshot;
use tg_des::stats::TimeBuckets;
use tg_des::SimDuration;
use tg_workload::{JobId, Modality};

/// Per-modality usage totals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModalityShares {
    /// Distinct accounts observed per modality, [`Modality::ALL`] order.
    pub accounts: Vec<u64>,
    /// Jobs per modality.
    pub jobs: Vec<u64>,
    /// Normalized units per modality.
    pub nus: Vec<f64>,
    /// Mean queue wait (seconds) per modality.
    pub mean_wait_s: Vec<f64>,
}

impl ModalityShares {
    /// Compute shares from the database under `labels`.
    pub fn compute(
        db: &AccountingDb,
        labels: &HashMap<JobId, Modality>,
        charges: &ChargePolicy,
    ) -> Self {
        let n = Modality::ALL.len();
        let mut accounts: Vec<HashSet<_>> = vec![HashSet::new(); n];
        let mut jobs = vec![0u64; n];
        let mut nus = vec![0.0f64; n];
        let mut wait_sum = vec![0.0f64; n];
        for r in &db.jobs {
            let Some(&m) = labels.get(&r.job) else {
                continue;
            };
            let i = m.index();
            accounts[i].insert(r.user);
            jobs[i] += 1;
            nus[i] += charges.nu(r);
            wait_sum[i] += r.wait().as_secs_f64();
        }
        let mean_wait_s = (0..n)
            .map(|i| {
                if jobs[i] > 0 {
                    wait_sum[i] / jobs[i] as f64
                } else {
                    0.0
                }
            })
            .collect();
        ModalityShares {
            accounts: accounts.into_iter().map(|s| s.len() as u64).collect(),
            jobs,
            nus,
            mean_wait_s,
        }
    }

    /// Total NUs across modalities.
    pub fn total_nus(&self) -> f64 {
        self.nus.iter().sum()
    }

    /// Total jobs.
    pub fn total_jobs(&self) -> u64 {
        self.jobs.iter().sum()
    }

    /// NU share of a modality, in `[0, 1]`.
    pub fn nu_share(&self, m: Modality) -> f64 {
        let total = self.total_nus();
        if total <= 0.0 {
            0.0
        } else {
            self.nus[m.index()] / total
        }
    }

    /// Job share of a modality.
    pub fn job_share(&self, m: Modality) -> f64 {
        let total = self.total_jobs();
        if total == 0 {
            0.0
        } else {
            self.jobs[m.index()] as f64 / total as f64
        }
    }
}

impl fmt::Display for ModalityShares {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:>9} {:>10} {:>14} {:>8} {:>8} {:>12}",
            "modality", "accounts", "jobs", "NUs", "job%", "NU%", "mean wait"
        )?;
        for m in Modality::ALL {
            let i = m.index();
            writeln!(
                f,
                "{:<12} {:>9} {:>10} {:>14.0} {:>7.1}% {:>7.1}% {:>11.0}s",
                m.name(),
                self.accounts[i],
                self.jobs[i],
                self.nus[i],
                100.0 * self.job_share(m),
                100.0 * self.nu_share(m),
                self.mean_wait_s[i],
            )?;
        }
        Ok(())
    }
}

/// A per-modality time series of NUs in fixed buckets (F1's data).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModalityTrend {
    /// Bucket width.
    pub bucket: SimDuration,
    /// `series[modality][bucket]` = NUs charged to jobs *completing* in that
    /// bucket.
    pub series: Vec<Vec<f64>>,
}

impl ModalityTrend {
    /// Compute the trend under `labels`.
    pub fn compute(
        db: &AccountingDb,
        labels: &HashMap<JobId, Modality>,
        charges: &ChargePolicy,
        bucket: SimDuration,
    ) -> Self {
        let mut buckets: Vec<TimeBuckets> = Modality::ALL
            .iter()
            .map(|_| TimeBuckets::new(bucket))
            .collect();
        for r in &db.jobs {
            if let Some(&m) = labels.get(&r.job) {
                buckets[m.index()].add(r.end, charges.nu(r));
            }
        }
        let max_len = buckets.iter().map(|b| b.sums().len()).max().unwrap_or(0);
        let series = buckets
            .into_iter()
            .map(|b| {
                let mut v = b.sums().to_vec();
                v.resize(max_len, 0.0);
                v
            })
            .collect();
        ModalityTrend { bucket, series }
    }

    /// The series for one modality.
    pub fn of(&self, m: Modality) -> &[f64] {
        &self.series[m.index()]
    }

    /// Share of a modality within one bucket.
    pub fn share_in_bucket(&self, m: Modality, bucket: usize) -> f64 {
        let total: f64 = self.series.iter().filter_map(|s| s.get(bucket)).sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.series[m.index()].get(bucket).copied().unwrap_or(0.0) / total
    }
}

/// Per-field-of-science usage totals — the "usage by discipline" table
/// every federation annual report carries. Projects carry a field label;
/// job records carry the project.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FieldShares {
    /// `(field, jobs, NUs)` rows, ordered by field name.
    pub rows: Vec<(String, u64, f64)>,
}

impl FieldShares {
    /// Compute from the database and the population's project directory.
    /// Records charging a project the directory doesn't know land in
    /// `"(unknown)"` — a data-quality signal, not an error.
    pub fn compute(
        db: &AccountingDb,
        projects: &[tg_workload::Project],
        charges: &ChargePolicy,
    ) -> Self {
        use std::collections::BTreeMap;
        let mut by_field: BTreeMap<&str, (u64, f64)> = BTreeMap::new();
        for r in &db.jobs {
            let field = projects
                .get(r.project.index())
                .map(|p| p.field.as_str())
                .unwrap_or("(unknown)");
            let e = by_field.entry(field).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += charges.nu(r);
        }
        FieldShares {
            rows: by_field
                .into_iter()
                .map(|(f, (jobs, nus))| (f.to_string(), jobs, nus))
                .collect(),
        }
    }

    /// Total NUs across fields.
    pub fn total_nus(&self) -> f64 {
        self.rows.iter().map(|&(_, _, nus)| nus).sum()
    }
}

impl fmt::Display for FieldShares {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total_nus().max(1e-12);
        writeln!(
            f,
            "{:<12} {:>10} {:>14} {:>7}",
            "field", "jobs", "NUs", "NU%"
        )?;
        for (field, jobs, nus) in &self.rows {
            writeln!(
                f,
                "{field:<12} {jobs:>10} {nus:>14.0} {:>6.1}%",
                100.0 * nus / total
            )?;
        }
        Ok(())
    }
}

/// Per-gateway reach: how many *distinct end users* each science gateway
/// served, and with how many jobs — the headline number gateway projects
/// report (and exactly what per-account accounting cannot see).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GatewayReach {
    /// `(gateway, distinct end users, jobs)` rows, ordered by gateway id.
    pub rows: Vec<(tg_workload::GatewayId, u64, u64)>,
}

impl GatewayReach {
    /// Compute from the gateway-attribute stream.
    pub fn compute(db: &AccountingDb) -> Self {
        use std::collections::{BTreeMap, HashSet};
        let mut per_gateway: BTreeMap<tg_workload::GatewayId, (HashSet<u64>, u64)> =
            BTreeMap::new();
        for attr in &db.gateway_attrs {
            let e = per_gateway
                .entry(attr.gateway)
                .or_insert_with(|| (HashSet::new(), 0));
            e.0.insert(attr.end_user);
            e.1 += 1;
        }
        GatewayReach {
            rows: per_gateway
                .into_iter()
                .map(|(gw, (users, jobs))| (gw, users.len() as u64, jobs))
                .collect(),
        }
    }

    /// Total distinct end users across gateways (end users using two
    /// gateways count twice — each gateway has its own id space, as in
    /// production).
    pub fn total_end_users(&self) -> u64 {
        self.rows.iter().map(|&(_, users, _)| users).sum()
    }
}

impl fmt::Display for GatewayReach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<8} {:>12} {:>10}", "gateway", "end users", "jobs")?;
        for (gw, users, jobs) in &self.rows {
            writeln!(f, "{gw:<8} {users:>12} {jobs:>10}")?;
        }
        Ok(())
    }
}

/// The full usage report bundle (T1's content).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UsageReport {
    /// Usage shares.
    pub shares: ModalityShares,
    /// The taxonomy table: modality name → measurement mechanism.
    pub taxonomy: Vec<(String, String)>,
}

impl UsageReport {
    /// Build the report.
    pub fn compute(
        db: &AccountingDb,
        labels: &HashMap<JobId, Modality>,
        charges: &ChargePolicy,
    ) -> Self {
        UsageReport {
            shares: ModalityShares::compute(db, labels, charges),
            taxonomy: Modality::ALL
                .iter()
                .map(|m| (m.name().to_string(), m.measured_by().to_string()))
                .collect(),
        }
    }
}

impl fmt::Display for UsageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Usage modality taxonomy and measurement mechanisms:")?;
        for (name, mech) in &self.taxonomy {
            writeln!(f, "  {name:<12} measured by {mech}")?;
        }
        writeln!(f)?;
        self.shares.fmt(f)
    }
}

/// Human-readable rendering of a [`MetricsSnapshot`] — counters, gauge
/// summaries, and the engine profile if attached.
#[derive(Debug, Clone)]
pub struct MetricsReport<'a>(pub &'a MetricsSnapshot);

impl fmt::Display for MetricsReport<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let snap = self.0;
        writeln!(f, "Run metrics at t={:.0}s", snap.at_secs)?;
        if let Some(p) = &snap.engine {
            writeln!(
                f,
                "  engine: {} events in {:.3}s ({:.0} events/s), peak queue {}",
                p.events_delivered, p.wall_seconds, p.events_per_sec, p.peak_queue_len
            )?;
        }
        for c in &snap.counters {
            writeln!(f, "  {:<28} {:>14}", c.name, c.value)?;
        }
        for g in &snap.gauges {
            writeln!(
                f,
                "  {:<28} avg {:>10.2}  peak {:>8.0}  now {:>8.0}",
                g.name, g.average, g.peak, g.current
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_accounting::JobRecord;
    use tg_des::SimTime;
    use tg_model::SiteId;
    use tg_workload::{ProjectId, SubmitInterface, UserId};

    fn rec(id: usize, user: usize, end_h: u64, cores: usize) -> JobRecord {
        JobRecord {
            job: JobId(id),
            user: UserId(user),
            project: ProjectId(0),
            site: SiteId(0),
            submit: SimTime::ZERO,
            start: SimTime::from_secs(100),
            end: SimTime::from_hours(end_h),
            cores,
            interface: SubmitInterface::CommandLine,
            used_hw: false,
            input_mb: 0.0,
            output_mb: 0.0,
        }
    }

    fn setup() -> (AccountingDb, HashMap<JobId, Modality>, ChargePolicy) {
        let mut db = AccountingDb::new();
        db.add_job(rec(0, 1, 10, 100)); // batch, ~1000 core-hours
        db.add_job(rec(1, 2, 1, 1)); // gateway, ~1 core-hour
        db.add_job(rec(2, 2, 1, 1)); // gateway
        let labels: HashMap<_, _> = [
            (JobId(0), Modality::BatchComputing),
            (JobId(1), Modality::ScienceGateway),
            (JobId(2), Modality::ScienceGateway),
        ]
        .into_iter()
        .collect();
        (db, labels, ChargePolicy::new(vec![1.0]))
    }

    #[test]
    fn shares_aggregate_accounts_jobs_nus() {
        let (db, labels, charges) = setup();
        let s = ModalityShares::compute(&db, &labels, &charges);
        assert_eq!(s.total_jobs(), 3);
        assert_eq!(s.jobs[Modality::ScienceGateway.index()], 2);
        assert_eq!(s.accounts[Modality::ScienceGateway.index()], 1);
        assert!(s.nu_share(Modality::BatchComputing) > 0.99);
        assert!(s.job_share(Modality::ScienceGateway) > 0.6);
        // Shares sum to 1.
        let total: f64 = Modality::ALL.iter().map(|&m| s.nu_share(m)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unlabeled_jobs_are_skipped() {
        let (db, mut labels, charges) = setup();
        labels.remove(&JobId(0));
        let s = ModalityShares::compute(&db, &labels, &charges);
        assert_eq!(s.total_jobs(), 2);
    }

    #[test]
    fn trend_buckets_by_completion() {
        let (db, labels, charges) = setup();
        let t = ModalityTrend::compute(&db, &labels, &charges, SimDuration::from_hours(5));
        // Job 0 ends at hour 10 → bucket 2; jobs 1,2 end hour 1 → bucket 0.
        assert!(t.of(Modality::BatchComputing)[2] > 0.0);
        assert!(t.of(Modality::ScienceGateway)[0] > 0.0);
        assert_eq!(t.of(Modality::BatchComputing).len(), 3);
        assert!((t.share_in_bucket(Modality::ScienceGateway, 0) - 1.0).abs() < 1e-12);
        assert_eq!(t.share_in_bucket(Modality::Workflow, 1), 0.0);
    }

    #[test]
    fn report_displays_taxonomy_and_table() {
        let (db, labels, charges) = setup();
        let r = UsageReport::compute(&db, &labels, &charges);
        let text = r.to_string();
        assert!(text.contains("gateway"));
        assert!(text.contains("measured by"));
        assert!(text.contains("NU%"));
        assert_eq!(r.taxonomy.len(), Modality::ALL.len());
    }

    #[test]
    fn field_shares_group_by_project_directory() {
        let (db, _, charges) = setup();
        let projects = vec![tg_workload::Project::new(
            tg_workload::ProjectId(0),
            1e6,
            "astro",
        )];
        let fs = FieldShares::compute(&db, &projects, &charges);
        assert_eq!(fs.rows.len(), 1);
        assert_eq!(fs.rows[0].0, "astro");
        assert_eq!(fs.rows[0].1, 3);
        assert!(fs.total_nus() > 0.0);
        let text = fs.to_string();
        assert!(text.contains("astro"));
        assert!(text.contains("100.0%"));
        // Unknown projects are flagged, not dropped.
        let fs2 = FieldShares::compute(&db, &[], &charges);
        assert_eq!(fs2.rows[0].0, "(unknown)");
    }

    #[test]
    fn gateway_reach_counts_distinct_end_users() {
        use tg_accounting::GatewayAttribute;
        use tg_workload::GatewayId;
        let mut db = AccountingDb::new();
        for (job, end_user) in [(0, 10), (1, 10), (2, 11), (3, 42)] {
            db.add_gateway_attr(GatewayAttribute {
                gateway: GatewayId(if job < 3 { 0 } else { 1 }),
                job: JobId(job),
                end_user,
            });
        }
        let reach = GatewayReach::compute(&db);
        assert_eq!(reach.rows.len(), 2);
        assert_eq!(
            reach.rows[0],
            (GatewayId(0), 2, 3),
            "two people, three jobs"
        );
        assert_eq!(reach.rows[1], (GatewayId(1), 1, 1));
        assert_eq!(reach.total_end_users(), 3);
        let text = reach.to_string();
        assert!(text.contains("end users"));
        assert!(text.contains("gw0"));
    }

    #[test]
    fn metrics_report_renders_all_sections() {
        use tg_des::metrics::{EngineProfile, MetricsRegistry};
        let mut m = MetricsRegistry::enabled();
        let c = m.counter("jobs.enqueued");
        m.add(c, 9);
        let g = m.gauge("busy_cores.alpha", SimTime::ZERO, 0.0);
        m.gauge_set(g, SimTime::from_secs(10), 4.0);
        let mut snap = m.snapshot(SimTime::from_secs(20)).unwrap();
        snap.engine = Some(EngineProfile::new(100, 0.01, 7));
        let text = MetricsReport(&snap).to_string();
        assert!(text.contains("jobs.enqueued"));
        assert!(text.contains("busy_cores.alpha"));
        assert!(text.contains("peak queue 7"));
    }

    #[test]
    fn empty_db_is_all_zero() {
        let db = AccountingDb::new();
        let labels = HashMap::new();
        let s = ModalityShares::compute(&db, &labels, &ChargePolicy::new(vec![1.0]));
        assert_eq!(s.total_jobs(), 0);
        assert_eq!(s.nu_share(Modality::BatchComputing), 0.0);
    }
}
