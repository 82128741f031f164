//! A2 (ablation) — pre-drain filling on/off under the weekly-drain policy.
//!
//! The drain wall is a full-machine reservation; the question is whether
//! the scheduler keeps packing estimate-bounded jobs underneath it
//! (weekly-drain) or idles the machine until the wall (naive-drain).
//!
//! Expected shape: filling recovers most of the pre-drain idle time —
//! several utilization points per armed week — with identical hero service.

use super::{mean, mean_by, Check, Outcome, Scale};
use crate::emit::Table;
use crate::setup::{calibrated_users, single_site_config};
use serde::Serialize;
use tg_core::{replicate_with, Modality, RunOptions};
use tg_sched::SchedulerKind;
use tg_workload::ModalityProfile;

#[derive(Serialize)]
struct A2Result {
    scheduler: String,
    utilization: f64,
    ci: f64,
    normal_mean_wait_s: f64,
    hero_mean_wait_h: f64,
    backfills: u64,
    drains: u64,
}

/// Run A2.
pub fn run(_scale: Scale) -> Outcome {
    let nodes = 256;
    let cores = nodes * 8;
    let days = 28;
    let profile = ModalityProfile::default_for(Modality::BatchComputing);
    let users = calibrated_users(&profile, cores, 0.75);
    let hero_threshold = (cores as f64 * 0.9) as usize;

    let population = [(Modality::BatchComputing, users)];
    let mut results = Vec::new();
    for kind in [SchedulerKind::WeeklyDrain, SchedulerKind::NaiveDrain] {
        let cfg = single_site_config("a2", nodes, days, &population, kind);
        let reps = replicate_with(&cfg.build(), 15_000, 3, 0, &RunOptions::with_metrics());
        let mut utils = Vec::new();
        let mut normal_waits = Vec::new();
        let mut hero_waits = Vec::new();
        for r in &reps {
            utils.push(r.output.average_utilization());
            let (heroes, normal): (Vec<_>, Vec<_>) = r
                .output
                .db
                .jobs
                .iter()
                .partition(|j| j.cores >= hero_threshold);
            normal_waits.push(mean_by(&normal, |j| j.wait().as_secs_f64()));
            if !heroes.is_empty() {
                hero_waits.push(mean_by(&heroes, |j| j.wait().as_hours_f64()));
            }
        }
        let (util, ci) = tg_des::stats::ci_student_t(&utils);
        // Scheduler-internal counters surface through the metrics snapshot:
        // the weekly-drain policy both backfills under the wall and completes
        // drains; naive draining does neither.
        let counter = |prefix: &str| {
            let per_rep: Vec<f64> = reps
                .iter()
                .map(|r| {
                    let snap = r.output.metrics.as_ref().expect("metrics requested");
                    snap.counter_sum(prefix) as f64
                })
                .collect();
            mean(&per_rep).round() as u64
        };
        results.push(A2Result {
            scheduler: kind.name().to_string(),
            utilization: util,
            ci,
            normal_mean_wait_s: mean(&normal_waits),
            hero_mean_wait_h: mean(&hero_waits),
            backfills: counter("sched.backfills."),
            drains: counter("sched.drains."),
        });
    }

    let mut table = Table::new(
        "A2: pre-drain filling ablation (weekly drain, hero jobs present)",
        &[
            "scheduler",
            "utilization",
            "normal wait (s)",
            "hero wait (h)",
            "backfills",
            "drains",
        ],
    );
    for r in &results {
        table.row(vec![
            r.scheduler.clone(),
            format!("{:.3} ± {:.3}", r.utilization, r.ci),
            format!("{:.0}", r.normal_mean_wait_s),
            format!("{:.1}", r.hero_mean_wait_h),
            r.backfills.to_string(),
            r.drains.to_string(),
        ]);
    }
    // Today: filling lifts mean utilization 0.366 → 0.457
    // (+9.0 points, inside the ± 0.15–0.19 CIs, so not checked) and cuts
    // the normal-job wait 100× (958,879 s → 9,621 s); the check asks for
    // 10×. Both variants complete the same 4 drains.
    let (weekly, naive) = (&results[0], &results[1]);
    let check = Check::new(
        "a2.filling_cuts_normal_wait_10x",
        weekly.normal_mean_wait_s * 10.0 < naive.normal_mean_wait_s,
        format!(
            "normal wait weekly {:.0}s vs naive {:.0}s",
            weekly.normal_mean_wait_s, naive.normal_mean_wait_s
        ),
    );
    Outcome::new("exp_a2_drain_backfill", &results, vec![table], vec![check])
}
