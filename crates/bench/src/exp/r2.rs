//! R2 — Queue-wait and utilization damage from site outages, per scheduler.
//!
//! The F3 single-site testbed (high offered load, batch + interactive mix)
//! rerun under a fault schedule: a 12-hour announced outage on day 4 (two
//! hours of drain notice) and an unannounced 6-hour outage on day 10.
//! Only FCFS (which holds its head) and EASY (which starts only jobs
//! estimated to finish in time) act on the notice; conservative backfill
//! ignores it, so its row sees two unannounced outages.
//! Killed work requeues with exponential backoff. For FCFS, EASY, and
//! conservative backfill the experiment reports healthy vs faulted mean/P95
//! wait and utilization, plus the kill/requeue counts from the
//! `FaultReport` — the per-scheduler deltas are the deliverable.
//!
//! Expected shape: waits climb under faults for every scheduler, with the
//! backfilling schedulers absorbing the post-outage backlog burst better
//! than FCFS at P95. Measured *utilization* ticks up slightly: killed jobs
//! rerun from scratch, so the lost partial executions and the reruns both
//! count as busy time — wasted work masquerades as load, which is itself a
//! finding about reading utilization dashboards during incident recovery.

use super::f3::{testbed, CORES, SCHEDULERS, TARGET_LOAD};
use super::{mean, Check, Outcome, Scale};
use crate::emit::Table;
use serde::Serialize;
use tg_core::{replicate, FaultSpec, OutageWindow, ScenarioConfig};
use tg_des::stats::exact_quantile;

#[derive(Serialize)]
struct Condition {
    faulted: bool,
    mean_wait_s: f64,
    p95_wait_s: f64,
    utilization: f64,
    jobs_recorded: usize,
    jobs_killed: u64,
    jobs_requeued: u64,
    jobs_abandoned: u64,
}

#[derive(Serialize)]
struct SchedResult {
    scheduler: String,
    healthy: Condition,
    faulted: Condition,
    mean_wait_delta_s: f64,
    p95_wait_delta_s: f64,
    utilization_delta: f64,
}

#[derive(Serialize)]
struct R2Output {
    cores: usize,
    days: u64,
    replications: usize,
    outages: Vec<OutageWindow>,
    results: Vec<SchedResult>,
}

fn outages() -> Vec<OutageWindow> {
    let window = |start_hours, duration_hours, notice_hours| OutageWindow {
        site: 0,
        start_hours,
        duration_hours,
        notice_hours,
    };
    vec![window(96.0, 12.0, 2.0), window(240.0, 6.0, 0.0)]
}

fn measure(cfg: &ScenarioConfig, seed: u64, reps: usize) -> Condition {
    let reps = replicate(&cfg.clone().build(), seed, reps, 0);
    let mut waits = Vec::new();
    let mut utils = Vec::new();
    let (mut killed, mut requeued, mut abandoned) = (0u64, 0u64, 0u64);
    for r in &reps {
        waits.extend(r.output.db.jobs.iter().map(|j| j.wait().as_secs_f64()));
        utils.push(r.output.average_utilization());
        if let Some(fr) = &r.output.fault_report {
            killed += fr.jobs_killed;
            requeued += fr.jobs_requeued;
            abandoned += fr.jobs_abandoned;
        }
    }
    waits.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Condition {
        faulted: cfg.faults.is_some(),
        mean_wait_s: mean(&waits),
        p95_wait_s: exact_quantile(&waits, 0.95).unwrap_or(0.0),
        utilization: mean(&utils),
        jobs_recorded: waits.len(),
        jobs_killed: killed,
        jobs_requeued: requeued,
        jobs_abandoned: abandoned,
    }
}

/// Run R2.
pub fn run(_scale: Scale) -> Outcome {
    let (days, replications) = (21, 3);

    let mut results = Vec::new();
    let mut checks = Vec::new();
    for kind in SCHEDULERS {
        let mut cfg = testbed("r2", days, kind);
        let healthy = measure(&cfg, 5000, replications);
        cfg.faults = Some(FaultSpec {
            site_outages: outages(),
            ..FaultSpec::default()
        });
        let faulted = measure(&cfg, 5000, replications);
        // Today the outages kill 8 (fcfs), 29 (easy) and 38
        // (conservative) running jobs over 3 replications.
        checks.push(Check::new(
            format!("r2.outages_kill_running_work.{}", kind.name()),
            faulted.jobs_killed + faulted.jobs_requeued > 0,
            format!(
                "{} killed, {} requeued",
                faulted.jobs_killed, faulted.jobs_requeued
            ),
        ));
        results.push(SchedResult {
            scheduler: kind.name().to_string(),
            mean_wait_delta_s: faulted.mean_wait_s - healthy.mean_wait_s,
            p95_wait_delta_s: faulted.p95_wait_s - healthy.p95_wait_s,
            utilization_delta: faulted.utilization - healthy.utilization,
            healthy,
            faulted,
        });
    }

    let mut table = Table::new(
        format!("R2: outage damage per scheduler, {CORES} cores, load {TARGET_LOAD}, {days}d"),
        &[
            "scheduler",
            "wait(ok)",
            "wait(fault)",
            "p95(ok)",
            "p95(fault)",
            "util(ok)",
            "util(fault)",
            "killed",
            "requeued",
            "abandoned",
        ],
    );
    for r in &results {
        let (ok, bad) = (&r.healthy, &r.faulted);
        table.row(vec![
            r.scheduler.clone(),
            format!("{:.0}s", ok.mean_wait_s),
            format!("{:.0}s", bad.mean_wait_s),
            format!("{:.0}s", ok.p95_wait_s),
            format!("{:.0}s", bad.p95_wait_s),
            format!("{:.3}", ok.utilization),
            format!("{:.3}", bad.utilization),
            bad.jobs_killed.to_string(),
            bad.jobs_requeued.to_string(),
            bad.jobs_abandoned.to_string(),
        ]);
    }
    // Today every scheduler's mean wait climbs under faults:
    // +7,982 s (fcfs), +4,551 s (easy), +4,430 s (conservative).
    checks.push(Check::new(
        "r2.faults_raise_every_mean_wait",
        results.iter().all(|r| r.mean_wait_delta_s > 0.0),
        format!(
            "Δmean wait {:.0?} s",
            results
                .iter()
                .map(|r| r.mean_wait_delta_s)
                .collect::<Vec<_>>()
        ),
    ));
    let artifact = R2Output {
        cores: CORES,
        days,
        replications,
        outages: outages(),
        results,
    };
    Outcome::new("exp_r2_outage_waits", &artifact, vec![table], checks)
}
