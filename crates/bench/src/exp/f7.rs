//! F7 — Deadline-task schedule success rate vs reconfiguration time.
//!
//! Every task carries a deadline. Reconfiguration time sweeps five orders
//! of magnitude; the library is injected so the sweep controls it exactly.
//! Success = completing by the deadline, whether on hardware or via the
//! software fallback.
//!
//! Expected shape: the RC-aware policy degrades gracefully — as setup grows
//! it shifts work to the software implementation (visible in the hw-share
//! column) and holds most deadlines. RC-blind keeps paying the setup, so
//! its success rate collapses once reconfiguration approaches the deadline
//! scale.

use super::{Check, Outcome, Scale};
use crate::emit::Table;
use crate::setup::{rc_only_config, rc_tasks_per_day_for_load, synthetic_library};
use serde::Serialize;
use std::collections::HashMap;
use tg_core::{run_sweep, Modality};
use tg_des::{RngFactory, SimDuration};
use tg_sched::RcPolicy;
use tg_workload::{JobId, WorkloadGenerator};

#[derive(Serialize)]
struct F7Point {
    reconfig_ms: u64,
    policy: String,
    success_rate: f64,
    hw_fraction: f64,
    mean_turnaround_s: f64,
}

/// Run F7.
pub fn run(_scale: Scale) -> Outcome {
    let nodes = 16;
    let days = 2;
    let tasks_per_day = rc_tasks_per_day_for_load(nodes, 8, 0.4);
    let seed = 11_000;
    // The (reconfig, policy) grid cells are independent runs; sweep them
    // in parallel — each cell's workload and seed are its own.
    let grid: Vec<(u64, RcPolicy)> = [1u64, 100, 1_000, 10_000, 30_000, 100_000]
        .into_iter()
        .flat_map(|ms| [(ms, RcPolicy::AWARE), (ms, RcPolicy::BLIND)])
        .collect();
    let points: Vec<F7Point> = run_sweep(&grid, 0, |_, &(reconfig_ms, policy)| {
        let mut cfg = rc_only_config(nodes, 8, tasks_per_day, days, 12);
        cfg.rc_policy = policy;
        let reconfig = SimDuration::from_millis(reconfig_ms);
        cfg.library = Some(synthetic_library(12, reconfig, 1.0));
        // Every task gets a deadline.
        cfg.workload
            .profile_mut(Modality::RcAccelerated)
            .rc
            .as_mut()
            .expect("rc profile")
            .deadline_fraction = 1.0;
        cfg.name = format!("f7-{reconfig_ms}ms-{}", policy.name());

        // Deadlines live in the workload, not in accounting records:
        // regenerate the same workload to recover them.
        let workload =
            WorkloadGenerator::new(cfg.workload.clone()).generate(&RngFactory::new(seed));
        let deadline_of: HashMap<JobId, SimDuration> = workload
            .jobs
            .iter()
            .filter_map(|j| j.rc.and_then(|rc| rc.deadline).map(|d| (j.id, d)))
            .collect();

        let out = cfg.build().run(seed);
        let (mut met, mut hw, mut turn) = (0u64, 0u64, 0.0);
        for j in &out.db.jobs {
            turn += j.end.saturating_since(j.submit).as_secs_f64();
            hw += u64::from(j.used_hw);
            let d = deadline_of[&j.job];
            met += u64::from(j.end <= j.submit + d);
        }
        let total = out.db.jobs.len().max(1) as f64;
        F7Point {
            reconfig_ms,
            policy: policy.name().to_string(),
            success_rate: met as f64 / total,
            hw_fraction: hw as f64 / total,
            mean_turnaround_s: turn / total,
        }
    });

    let mut table = Table::new(
        "F7: deadline success vs reconfiguration time",
        &["reconfig", "policy", "success", "hw share", "turnaround"],
    );
    for p in &points {
        table.row(vec![
            if p.reconfig_ms >= 1000 {
                format!("{}s", p.reconfig_ms / 1000)
            } else {
                format!("{}ms", p.reconfig_ms)
            },
            p.policy.clone(),
            format!("{:.1}%", 100.0 * p.success_rate),
            format!("{:.0}%", 100.0 * p.hw_fraction),
            format!("{:.0}s", p.mean_turnaround_s),
        ]);
    }
    // Today, at 100 s reconfigurations: aware meets 97.9% of
    // deadlines vs blind's 85.3%; turnaround 88 s vs 152 s.
    let (aware, blind) = (&points[points.len() - 2], &points[points.len() - 1]);
    let check = Check::new(
        "f7.aware_holds_deadlines_at_100s",
        aware.success_rate > blind.success_rate + 0.05,
        format!(
            "success aware {:.1}% vs blind {:.1}%",
            100.0 * aware.success_rate,
            100.0 * blind.success_rate
        ),
    );
    Outcome::new("exp_f7_reconfig_sweep", &points, vec![table], vec![check])
}
