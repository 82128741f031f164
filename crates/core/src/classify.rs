//! Inferring usage modalities from accounting records.
//!
//! This is the paper's proposal made executable: given only what central
//! accounting stores, label every job with the modality it served. Two
//! modes, which together make the paper's argument quantitative:
//!
//! * [`ClassifierMode::WithAttributes`] — uses the *added* instrumentation
//!   TeraGrid deployed for exactly this purpose: gateway end-user
//!   attributes, submit-interface tags, and RC placement records.
//! * [`ClassifierMode::RecordsOnly`] — pre-instrumentation accounting: job
//!   shape, timing, session and transfer records only. Gateway and workflow
//!   traffic must be recognized by behavioural fingerprint, which is
//!   noisy — the measured accuracy gap *is* the case for the attributes.
//!
//! The classifier is decision rules, not learned weights: the point is that
//! the records determine the modality, not that a model can be fit.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use tg_accounting::query::{user_summaries, UserSummary};
use tg_accounting::{AccountingDb, JobRecord};
use tg_des::SimDuration;
use tg_workload::{JobId, Modality, SubmitInterface, UserId};

/// Which record streams the classifier may consult.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ClassifierMode {
    /// Full instrumentation: gateway attributes, interface tags, RC records.
    WithAttributes,
    /// Legacy accounting only: shape, timing, sessions, transfers.
    RecordsOnly,
}

impl ClassifierMode {
    /// Stable short name.
    pub fn name(self) -> &'static str {
        match self {
            ClassifierMode::WithAttributes => "with-attributes",
            ClassifierMode::RecordsOnly => "records-only",
        }
    }
}

/// Tunable thresholds of the rule set (defaults are sensible for the
/// baseline scenario; experiments may sweep them).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleThresholds {
    /// Same-instant batch size at or above which a batch counts as
    /// machine-generated (ensemble or workflow stage).
    pub batch_size: u64,
    /// Jobs/day above which an account looks like a gateway community
    /// account (records-only mode).
    pub gateway_rate: f64,
    /// Wall-clock cutoff for "interactive-short" jobs.
    pub interactive_wall: SimDuration,
    /// Core cutoff for "interactive-small" jobs.
    pub interactive_cores: usize,
    /// MB transferred per core-hour above which an account is data-centric.
    pub data_mb_per_core_hour: f64,
}

impl Default for RuleThresholds {
    fn default() -> Self {
        RuleThresholds {
            batch_size: 5,
            gateway_rate: 20.0,
            interactive_wall: SimDuration::from_mins(30),
            interactive_cores: 8,
            data_mb_per_core_hour: 1_000.0,
        }
    }
}

/// Classify every job in the database. Returns `(job id → inferred
/// modality)`, deterministically.
pub fn classify_all(db: &AccountingDb, mode: ClassifierMode) -> HashMap<JobId, Modality> {
    classify_with(db, mode, &RuleThresholds::default())
}

/// The attribute streams [`ClassifierMode::WithAttributes`] consults,
/// indexed by job id once per call (empty in records-only mode).
#[derive(Default)]
struct Attributes {
    gateway: HashSet<JobId>,
    rc_placed: HashSet<JobId>,
}

/// [`classify_all`] with explicit thresholds. Linear in the record count:
/// per-user summaries, batches and attributes are each built in one pass.
pub fn classify_with(
    db: &AccountingDb,
    mode: ClassifierMode,
    t: &RuleThresholds,
) -> HashMap<JobId, Modality> {
    let attrs = match mode {
        ClassifierMode::WithAttributes => Attributes {
            gateway: db.gateway_job_ids(),
            rc_placed: db.rc_placed_job_ids(),
        },
        ClassifierMode::RecordsOnly => Attributes::default(),
    };
    let summaries: HashMap<UserId, UserSummary> = user_summaries(db)
        .into_iter()
        .map(|s| (s.user, s))
        .collect();
    // Same-instant batch index: (user, submit) → (count, uniform cores?).
    let mut batches: HashMap<(UserId, tg_des::SimTime), (u64, usize, bool)> = HashMap::new();
    for j in &db.jobs {
        let e = batches
            .entry((j.user, j.submit))
            .or_insert((0, j.cores, true));
        e.0 += 1;
        if j.cores != e.1 {
            e.2 = false;
        }
    }

    let mut out = HashMap::with_capacity(db.jobs.len());
    for j in &db.jobs {
        let summary = summaries.get(&j.user).expect("summary for every account");
        let (batch_n, _, batch_uniform) = batches[&(j.user, j.submit)];
        let m = classify_one(&attrs, j, summary, batch_n, batch_uniform, mode, t);
        out.insert(j.job, m);
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn classify_one(
    attrs: &Attributes,
    j: &JobRecord,
    summary: &UserSummary,
    batch_n: u64,
    batch_uniform: bool,
    mode: ClassifierMode,
    t: &RuleThresholds,
) -> Modality {
    match mode {
        ClassifierMode::WithAttributes => {
            // Strong evidence first.
            if attrs.rc_placed.contains(&j.job) || j.used_hw {
                return Modality::RcAccelerated;
            }
            if attrs.gateway.contains(&j.job) {
                return Modality::ScienceGateway;
            }
            if j.interface == SubmitInterface::WorkflowEngine {
                return Modality::Workflow;
            }
            shape_rules(j, summary, batch_n, batch_uniform, t)
        }
        ClassifierMode::RecordsOnly => {
            // No attributes: RC fabric usage is still visible in the job
            // record's partition (we model it as the used_hw flag, which a
            // site's local RM reports even without federation attributes)…
            // no — records-only means *legacy* accounting: hide it.
            // Gateways: community accounts show extreme *sustained* rates —
            // require volume so a single busy afternoon doesn't qualify.
            if summary.jobs >= 30
                && summary.jobs_per_day >= t.gateway_rate
                && summary.small_frac > 0.5
            {
                return Modality::ScienceGateway;
            }
            shape_rules(j, summary, batch_n, batch_uniform, t)
        }
    }
}

/// Shape/timing rules shared by both modes.
fn shape_rules(
    j: &JobRecord,
    summary: &UserSummary,
    batch_n: u64,
    batch_uniform: bool,
    t: &RuleThresholds,
) -> Modality {
    // Machine-generated same-instant batches.
    if batch_n >= t.batch_size {
        return if batch_uniform {
            Modality::Ensemble
        } else {
            Modality::Workflow
        };
    }
    // Data-centric accounts: lots of bytes per unit compute.
    if summary.transfers > 0 {
        let mb_per_ch = summary.transfer_mb / summary.core_hours.max(1e-6);
        if mb_per_ch >= t.data_mb_per_core_hour {
            return Modality::DataMovement;
        }
    }
    // Interactive: short + small + the account holds login sessions.
    if summary.sessions > 0 && j.wall() <= t.interactive_wall && j.cores <= t.interactive_cores {
        return Modality::Interactive;
    }
    Modality::BatchComputing
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_accounting::{GatewayAttribute, RcPlacementRecord, SessionRecord, TransferRecord};
    use tg_des::SimTime;
    use tg_model::{ConfigId, NodeId, SiteId};
    use tg_workload::{GatewayId, ProjectId};

    fn job(id: usize, user: usize, submit: u64, wall_s: u64, cores: usize) -> JobRecord {
        JobRecord {
            job: JobId(id),
            user: UserId(user),
            project: ProjectId(0),
            site: SiteId(0),
            submit: SimTime::from_secs(submit),
            start: SimTime::from_secs(submit + 60),
            end: SimTime::from_secs(submit + 60 + wall_s),
            cores,
            interface: SubmitInterface::CommandLine,
            used_hw: false,
            input_mb: 0.0,
            output_mb: 0.0,
        }
    }

    #[test]
    fn gateway_attr_wins_with_attributes_only() {
        let mut db = AccountingDb::new();
        db.add_job(job(0, 1, 0, 600, 2));
        db.add_gateway_attr(GatewayAttribute {
            gateway: GatewayId(0),
            job: JobId(0),
            end_user: 5,
        });
        let with = classify_all(&db, ClassifierMode::WithAttributes);
        assert_eq!(with[&JobId(0)], Modality::ScienceGateway);
        let without = classify_all(&db, ClassifierMode::RecordsOnly);
        assert_ne!(
            without[&JobId(0)],
            Modality::ScienceGateway,
            "one slow-rate job can't be recognized without the attribute"
        );
    }

    #[test]
    fn high_rate_small_job_account_reads_as_gateway_without_attrs() {
        let mut db = AccountingDb::new();
        // 100 small jobs in one day from one account, spread out (no batches).
        for i in 0..100 {
            db.add_job(job(i, 7, i as u64 * 800, 600, 2));
        }
        let inferred = classify_all(&db, ClassifierMode::RecordsOnly);
        assert_eq!(inferred[&JobId(50)], Modality::ScienceGateway);
    }

    #[test]
    fn engine_interface_marks_workflow() {
        let mut db = AccountingDb::new();
        db.add_job(JobRecord {
            interface: SubmitInterface::WorkflowEngine,
            ..job(0, 2, 0, 3600, 16)
        });
        let inferred = classify_all(&db, ClassifierMode::WithAttributes);
        assert_eq!(inferred[&JobId(0)], Modality::Workflow);
    }

    #[test]
    fn uniform_batches_read_as_ensemble_nonuniform_as_workflow() {
        let mut db = AccountingDb::new();
        for i in 0..8 {
            db.add_job(job(i, 3, 1000, 3600, 4)); // uniform
        }
        for i in 10..16 {
            db.add_job(job(i, 4, 2000, 3600, 1 + i)); // non-uniform
        }
        for mode in [ClassifierMode::WithAttributes, ClassifierMode::RecordsOnly] {
            let inferred = classify_all(&db, mode);
            assert_eq!(inferred[&JobId(3)], Modality::Ensemble, "{}", mode.name());
            assert_eq!(inferred[&JobId(12)], Modality::Workflow, "{}", mode.name());
        }
    }

    #[test]
    fn rc_placement_record_marks_rc() {
        let mut db = AccountingDb::new();
        db.add_job(JobRecord {
            used_hw: true,
            ..job(0, 5, 0, 120, 1)
        });
        // The placement record alone is enough, without the hardware flag.
        db.add_job(job(1, 5, 500, 120, 1));
        for id in [0, 1] {
            db.add_rc_placement(RcPlacementRecord {
                job: JobId(id),
                site: SiteId(0),
                node: NodeId(0),
                config: ConfigId(0),
                reused: false,
                transfer: SimDuration::ZERO,
                reconfig: SimDuration::from_millis(100),
                deadline_met: None,
            });
        }
        let inferred = classify_all(&db, ClassifierMode::WithAttributes);
        assert_eq!(inferred[&JobId(0)], Modality::RcAccelerated);
        assert_eq!(inferred[&JobId(1)], Modality::RcAccelerated);
        let inferred = classify_all(&db, ClassifierMode::RecordsOnly);
        assert_ne!(inferred[&JobId(1)], Modality::RcAccelerated);
    }

    #[test]
    fn sessions_plus_short_small_reads_interactive() {
        let mut db = AccountingDb::new();
        db.add_job(job(0, 6, 0, 600, 2));
        db.add_session(SessionRecord {
            user: UserId(6),
            site: SiteId(0),
            login: SimTime::ZERO,
            logout: SimTime::from_secs(700),
        });
        let inferred = classify_all(&db, ClassifierMode::WithAttributes);
        assert_eq!(inferred[&JobId(0)], Modality::Interactive);
        // The same user's long wide job is still batch.
        db.add_job(job(1, 6, 5000, 86_400, 256));
        let inferred = classify_all(&db, ClassifierMode::WithAttributes);
        assert_eq!(inferred[&JobId(1)], Modality::BatchComputing);
    }

    #[test]
    fn heavy_transfer_account_reads_data_movement() {
        let mut db = AccountingDb::new();
        db.add_job(job(0, 8, 0, 300, 1));
        db.add_transfer(TransferRecord {
            user: UserId(8),
            project: ProjectId(0),
            src: SiteId(0),
            dst: SiteId(1),
            mb: 1_000_000.0,
            start: SimTime::ZERO,
            end: SimTime::from_secs(100),
        });
        let inferred = classify_all(&db, ClassifierMode::WithAttributes);
        assert_eq!(inferred[&JobId(0)], Modality::DataMovement);
    }

    #[test]
    fn default_is_batch() {
        let mut db = AccountingDb::new();
        db.add_job(job(0, 9, 0, 4 * 3600, 64));
        for mode in [ClassifierMode::WithAttributes, ClassifierMode::RecordsOnly] {
            let inferred = classify_all(&db, mode);
            assert_eq!(inferred[&JobId(0)], Modality::BatchComputing);
        }
    }

    #[test]
    fn every_job_gets_a_label() {
        let mut db = AccountingDb::new();
        for i in 0..50 {
            db.add_job(job(i, i % 5, i as u64 * 100, 100 + i as u64, 1 + i % 16));
        }
        let inferred = classify_all(&db, ClassifierMode::WithAttributes);
        assert_eq!(inferred.len(), 50);
    }
}
