//! T1 — Modality taxonomy × measurement-mechanism matrix, plus measured
//! usage shares (accounts / jobs / NUs) per modality on the baseline
//! scenario.
//!
//! Expected shape: science gateways dominate *user* counts, batch computing
//! dominates *NUs*, shares sum to one, and gateway users collapse onto the
//! gateways' community accounts in the records.

use super::{Check, Outcome, Scale};
use crate::emit::Table;
use serde::Serialize;
use tg_core::report::UsageReport;
use tg_core::{replicate_with, MetricsSnapshot, Modality, RunOptions, ScenarioConfig};
use tg_des::SimDuration;

#[derive(Serialize)]
struct T1Output {
    scenario: String,
    replications: usize,
    taxonomy: Vec<(String, String)>,
    accounts: Vec<u64>,
    population_users: Vec<usize>,
    jobs: Vec<u64>,
    nus: Vec<f64>,
    nu_share: Vec<f64>,
    job_share: Vec<f64>,
    metrics: Option<MetricsSnapshot>,
}

/// Run T1.
pub fn run(scale: Scale) -> Outcome {
    let (users, days) = scale.pick((500, 45), (150, 10));
    let mut cfg = ScenarioConfig::baseline(users, days);
    cfg.sample_interval = Some(SimDuration::from_hours(6));
    let population = cfg.workload.mix.users_per_modality;
    let gateways = cfg.workload.mix.gateways;
    let reps = replicate_with(
        &cfg.build(),
        scale.seed(1000),
        scale.pick(3, 1),
        0,
        &RunOptions::with_metrics(),
    );

    // Report on the first replication.
    let out = &reps[0].output;
    let report = UsageReport::compute(&out.db, &out.truth, &out.charge_policy);
    let mut tax = Table::new(
        "T1a: usage-modality taxonomy and measurement mechanisms",
        &["modality", "measured by"],
    );
    for (name, mech) in &report.taxonomy {
        tax.row(vec![name.clone(), mech.clone()]);
    }
    let mut shares = Table::new(
        format!("T1b: usage shares, baseline ({users} users, {days} days, ground truth)"),
        &[
            "modality", "users", "accounts", "jobs", "NUs", "job%", "NU%",
        ],
    );
    let s = &report.shares;
    for m in Modality::ALL {
        let i = m.index();
        shares.row(vec![
            m.name().into(),
            population[i].to_string(),
            s.accounts[i].to_string(),
            s.jobs[i].to_string(),
            format!("{:.0}", s.nus[i]),
            format!("{:.1}%", 100.0 * s.job_share(m)),
            format!("{:.1}%", 100.0 * s.nu_share(m)),
        ]);
    }

    // Headline claims. Today (full scale): 200 gateway vs 110 batch users
    // (set by the baseline mix); batch holds 81.7% of NUs vs the gateways'
    // 1.3%; the 200 gateway users appear as 6 accounts, one per gateway.
    let (gw, batch) = (Modality::ScienceGateway, Modality::BatchComputing);
    let (gw_users, batch_users) = (population[gw.index()], population[batch.index()]);
    let gw_accounts = s.accounts[gw.index()] as usize;
    let mut checks = vec![
        Check::new(
            "t1.gateway_users_exceed_batch",
            gw_users > batch_users,
            format!("{gw_users} gateway vs {batch_users} batch users"),
        ),
        Check::new(
            "t1.batch_leads_nu_share",
            s.nu_share(batch) > s.nu_share(gw),
            format!(
                "batch {:.1}% vs gateway {:.1}% of NUs",
                100.0 * s.nu_share(batch),
                100.0 * s.nu_share(gw)
            ),
        ),
        Check::new(
            "t1.gateway_accounts_collapse",
            gw_accounts <= gateways && gw_accounts < gw_users,
            format!(
                "{gw_users} gateway users appear as {gw_accounts} accounts ({gateways} gateways)"
            ),
        ),
    ];
    let nu_share: Vec<f64> = Modality::ALL.iter().map(|&m| s.nu_share(m)).collect();
    let job_share: Vec<f64> = Modality::ALL.iter().map(|&m| s.job_share(m)).collect();
    for (name, v) in [("nu", &nu_share), ("job", &job_share)] {
        let sum: f64 = v.iter().sum();
        let detail = format!("sum {sum}");
        checks.push(Check::new(
            format!("t1.{name}_shares_sum_to_one"),
            (sum - 1.0).abs() < 1e-9,
            detail,
        ));
    }
    // The run-level metrics agree with the accounting database.
    let snap = out.metrics.as_ref().expect("metrics requested");
    let records = out.db.jobs.len() as u64;
    for (what, prefix) in [
        ("site", "completed.site."),
        ("modality", "completed.modality."),
    ] {
        let sum = snap.counter_sum(prefix);
        checks.push(Check::new(
            format!("t1.{what}_counters_match_records"),
            sum == records,
            format!("{sum} {prefix}* vs {records} records"),
        ));
    }

    // The engine block is wall-clock data; the artifact keeps only what the
    // seed determines.
    let mut metrics = out.metrics.clone();
    if let Some(m) = metrics.as_mut() {
        m.engine = None;
    }
    let artifact = T1Output {
        scenario: out.scenario.clone(),
        replications: reps.len(),
        taxonomy: report.taxonomy.clone(),
        accounts: s.accounts.clone(),
        population_users: population.to_vec(),
        jobs: s.jobs.clone(),
        nus: s.nus.clone(),
        nu_share,
        job_share,
        metrics,
    };
    Outcome::new(
        "exp_t1_modality_shares",
        &artifact,
        vec![tax, shares],
        checks,
    )
}
