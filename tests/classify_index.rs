//! Differential test for the classifier's per-call indexes.
//!
//! `user_summaries` and `classify_with` index the attribute job ids and the
//! per-user session/transfer tallies once per call. This file keeps the
//! straightforward scan-based formulation they replaced (attribute scans per
//! job, one session and transfer scan per user) as a reference, and checks
//! that both give exactly the same summaries and labels on simulated
//! accounting, including ingest loss and duplication. The reference answers
//! "does this job carry a gateway attribute?" with one scan per job and
//! shares the answers between its summaries and its labels, which keeps the
//! quadratic reference affordable in debug builds.

use std::collections::{BTreeMap, HashMap, HashSet};
use teragrid_repro::prelude::*;
use tg_accounting::query::{user_summaries, UserSummary};
use tg_core::classify::{classify_with, RuleThresholds};
use tg_des::SimTime;
use tg_workload::SubmitInterface;

/// The jobs `AccountingDb::has_gateway_attr` says yes to, one scan each.
fn scanned_gateway_jobs(db: &AccountingDb) -> HashSet<JobId> {
    db.jobs
        .iter()
        .filter(|j| db.has_gateway_attr(j.job))
        .map(|j| j.job)
        .collect()
}

fn ref_user_summaries(db: &AccountingDb, gateway: &HashSet<JobId>) -> Vec<UserSummary> {
    let mut by_user: BTreeMap<tg_workload::UserId, Vec<&JobRecord>> = BTreeMap::new();
    for j in &db.jobs {
        by_user.entry(j.user).or_default().push(j);
    }
    for s in &db.sessions {
        by_user.entry(s.user).or_default();
    }
    for t in &db.transfers {
        by_user.entry(t.user).or_default();
    }
    let frac = |jobs: &[&JobRecord], pred: &dyn Fn(&JobRecord) -> bool| {
        if jobs.is_empty() {
            0.0
        } else {
            jobs.iter().filter(|j| pred(j)).count() as f64 / jobs.len() as f64
        }
    };

    let mut out = Vec::with_capacity(by_user.len());
    for (user, mut jobs) in by_user {
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
        let short_frac = frac(&jobs, &|j| j.wall() < SimDuration::from_mins(30));
        let small_frac = frac(&jobs, &|j| j.cores <= 8);

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

        let sessions: Vec<_> = db.sessions.iter().filter(|s| s.user == user).collect();
        let session_hours: f64 = sessions
            .iter()
            .map(|s| s.logout.saturating_since(s.login).as_hours_f64())
            .sum();
        let transfers: Vec<_> = db.transfers.iter().filter(|t| t.user == user).collect();
        let transfer_mb: f64 = transfers.iter().map(|t| t.mb).sum();

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
            sessions: sessions.len() as u64,
            session_hours,
            transfers: transfers.len() as u64,
            transfer_mb,
        });
    }
    out
}

/// The scan-based `classify_with`, taking the summaries `ref_user_summaries`
/// built (they do not depend on the mode).
fn ref_classify(
    db: &AccountingDb,
    gateway: &HashSet<JobId>,
    summaries: &[UserSummary],
    mode: ClassifierMode,
    t: &RuleThresholds,
) -> HashMap<JobId, Modality> {
    let summaries: HashMap<_, _> = summaries.iter().map(|s| (s.user, s)).collect();
    let mut batches: HashMap<(tg_workload::UserId, SimTime), (u64, usize, bool)> = HashMap::new();
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
        let summary = summaries[&j.user];
        let (batch_n, _, batch_uniform) = batches[&(j.user, j.submit)];
        let attributed = match mode {
            ClassifierMode::WithAttributes => {
                if db.rc_placements.iter().any(|p| p.job == j.job) || j.used_hw {
                    Some(Modality::RcAccelerated)
                } else if gateway.contains(&j.job) {
                    Some(Modality::ScienceGateway)
                } else if j.interface == SubmitInterface::WorkflowEngine {
                    Some(Modality::Workflow)
                } else {
                    None
                }
            }
            ClassifierMode::RecordsOnly => (summary.jobs >= 30
                && summary.jobs_per_day >= t.gateway_rate
                && summary.small_frac > 0.5)
                .then_some(Modality::ScienceGateway),
        };
        let m = attributed.unwrap_or_else(|| {
            if batch_n >= t.batch_size {
                if batch_uniform {
                    Modality::Ensemble
                } else {
                    Modality::Workflow
                }
            } else if summary.transfers > 0
                && summary.transfer_mb / summary.core_hours.max(1e-6) >= t.data_mb_per_core_hour
            {
                Modality::DataMovement
            } else if summary.sessions > 0
                && j.wall() <= t.interactive_wall
                && j.cores <= t.interactive_cores
            {
                Modality::Interactive
            } else {
                Modality::BatchComputing
            }
        });
        out.insert(j.job, m);
    }
    out
}

fn assert_index_matches_scans(tag: &str, db: &AccountingDb) {
    // Every stream the indexes replace must be exercised.
    assert!(!db.gateway_attrs.is_empty(), "{tag}: no gateway attributes");
    assert!(!db.rc_placements.is_empty(), "{tag}: no RC placements");
    assert!(!db.sessions.is_empty(), "{tag}: no sessions");
    assert!(!db.transfers.is_empty(), "{tag}: no transfers");

    let gateway = scanned_gateway_jobs(db);
    let want = ref_user_summaries(db, &gateway);
    assert_eq!(user_summaries(db), want, "{tag}: user summaries differ");
    let t = RuleThresholds::default();
    for mode in [ClassifierMode::WithAttributes, ClassifierMode::RecordsOnly] {
        let got = classify_with(db, mode, &t);
        assert!(
            got == ref_classify(db, &gateway, &want, mode, &t),
            "{tag}: {} labels differ",
            mode.name()
        );
    }
}

fn baseline_case(seed: u64) {
    let out = ScenarioConfig::baseline(300, 14).build().run(seed);
    assert_index_matches_scans(&format!("baseline seed {seed}"), &out.db);
}

#[test]
fn indexed_classifier_matches_scans_on_baseline_seed_9000() {
    baseline_case(9000);
}

#[test]
fn indexed_classifier_matches_scans_on_baseline_seed_9001() {
    baseline_case(9001);
}

#[test]
fn indexed_classifier_matches_scans_under_ingest_faults() {
    let mut cfg = ScenarioConfig::baseline(300, 14);
    cfg.faults = Some(FaultSpec {
        ingest: Some(IngestFaults {
            loss: 0.1,
            duplication: 0.1,
        }),
        ..FaultSpec::default()
    });
    let out = cfg.build().run(9000);
    let db = &out.db;
    // Loss drops the attributes of some gateway jobs whose records survive;
    // duplication repeats sessions, transfers and attributes.
    let gateway: HashSet<_> = db.gateway_attrs.iter().map(|a| a.job).collect();
    assert!(
        gateway.len() < db.gateway_attrs.len(),
        "no duplicated attribute"
    );
    assert!(
        db.jobs
            .iter()
            .any(|j| out.truth_of(j.job) == Some(Modality::ScienceGateway)
                && !gateway.contains(&j.job)),
        "no lost attribute"
    );
    let distinct_sessions: HashSet<_> = db
        .sessions
        .iter()
        .map(|s| (s.user, s.site, s.login, s.logout))
        .collect();
    assert!(
        distinct_sessions.len() < db.sessions.len(),
        "no duplicated session"
    );
    let distinct_transfers: HashSet<_> = db
        .transfers
        .iter()
        .map(|t| (t.user, t.src, t.dst, t.start, t.end, t.mb.to_bits()))
        .collect();
    assert!(
        distinct_transfers.len() < db.transfers.len(),
        "no duplicated transfer"
    );
    assert_index_matches_scans("ingest loss + duplication", db);
}
