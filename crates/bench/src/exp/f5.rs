//! F5 — Average RC-task waiting time vs number of reconfigurable nodes,
//! RC-aware vs RC-blind scheduling.
//!
//! "Waiting" for an RC task is everything between submission and execution
//! start: deferral while the fabric is full plus the setup pipeline
//! (bitstream fetch over the WAN + 15 s fabric reconfiguration). The
//! offered load is fixed — sized to ~70% of a 16-node partition — so small
//! partitions are overloaded and large ones are slack.
//!
//! Expected shape: waits fall steeply with partition size for both
//! policies; RC-aware sits below RC-blind at every size because reuse
//! skips the setup pipeline, and the absolute gap shrinks as the partition
//! grows slack.

use super::{mean, mean_by, Check, Outcome, Scale};
use crate::emit::Table;
use crate::setup::{rc_only_config, rc_tasks_per_day_for_load, synthetic_library};
use crate::xcheck::{replicate_crosschecked, WaitCrossCheck};
use serde::Serialize;
use tg_des::SimDuration;
use tg_sched::RcPolicy;

#[derive(Serialize)]
struct F5Point {
    nodes: usize,
    policy: String,
    mean_wait_s: f64,
    ci: f64,
    mean_turnaround_s: f64,
    reuse_fraction: f64,
    hw_fraction: f64,
    /// Span-analyzer reconstruction of replication 0's mean wait from its
    /// JSONL trace, vs the accounting database.
    trace_crosscheck: WaitCrossCheck,
}

/// Run F5.
pub fn run(_scale: Scale) -> Outcome {
    let days = 2;
    let tasks_per_day = rc_tasks_per_day_for_load(16, 8, 0.7);
    let mut checks = Vec::new();
    let mut points = Vec::new();
    for nodes in [4, 8, 16, 32, 64] {
        for policy in [RcPolicy::AWARE, RcPolicy::BLIND] {
            let mut cfg = rc_only_config(nodes, 8, tasks_per_day, days, 12);
            cfg.rc_policy = policy;
            cfg.library = Some(synthetic_library(12, SimDuration::from_secs(15), 1.0));
            cfg.name = format!("f5-{nodes}n-{}", policy.name());
            let (reps, xcheck) = replicate_crosschecked(&cfg.build(), 8000, 3);
            checks.push(Check::new(
                format!("f5.trace_mean_wait_within_1pct.{nodes}n.{}", policy.name()),
                xcheck.agrees_within(0.01),
                format!(
                    "analyzer {:.3}s vs accounting {:.3}s (rel err {:.5})",
                    xcheck.analyzer_mean_wait_s, xcheck.db_mean_wait_s, xcheck.rel_err
                ),
            ));
            let mut waits = Vec::new();
            let mut turns = Vec::new();
            let mut reuse_frac = Vec::new();
            let mut hw_frac = Vec::new();
            for r in &reps {
                let jobs = &r.output.db.jobs;
                waits.push(mean_by(jobs, |j| j.wait().as_secs_f64()));
                turns.push(mean_by(jobs, |j| {
                    j.end.saturating_since(j.submit).as_secs_f64()
                }));
                let stats = r.output.site_stats[1].rc_stats;
                let placements = (stats.reuses + stats.reconfigs).max(1);
                reuse_frac.push(stats.reuses as f64 / placements as f64);
                hw_frac.push(jobs.iter().filter(|j| j.used_hw).count() as f64 / jobs.len() as f64);
            }
            let (mean_wait, ci) = tg_des::stats::ci_student_t(&waits);
            points.push(F5Point {
                nodes,
                policy: policy.name().to_string(),
                mean_wait_s: mean_wait,
                ci,
                mean_turnaround_s: mean(&turns),
                reuse_fraction: mean(&reuse_frac),
                hw_fraction: mean(&hw_frac),
                trace_crosscheck: xcheck,
            });
        }
    }

    let mut table = Table::new(
        format!(
            "F5: RC-task mean wait (s) vs partition size ({tasks_per_day:.0} tasks/day offered)"
        ),
        &[
            "nodes",
            "policy",
            "mean wait",
            "turnaround",
            "reuse%",
            "hw%",
        ],
    );
    for p in &points {
        table.row(vec![
            p.nodes.to_string(),
            p.policy.clone(),
            format!("{:.1} ± {:.1}", p.mean_wait_s, p.ci),
            format!("{:.0}", p.mean_turnaround_s),
            format!("{:.0}%", 100.0 * p.reuse_fraction),
            format!("{:.0}%", 100.0 * p.hw_fraction),
        ]);
    }
    // Today: aware waits less at 5/5 sizes, by 7.2 s at 16
    // nodes (4.5 vs 11.7 s) and by ≥ 20% under overload.
    let aware_wins = points
        .chunks(2)
        .filter(|pair| pair[0].mean_wait_s < pair[1].mean_wait_s)
        .count();
    checks.push(Check::new(
        "f5.aware_waits_less_at_every_size",
        aware_wins == points.len() / 2,
        format!(
            "rc-aware waits less at {aware_wins}/{} sizes",
            points.len() / 2
        ),
    ));
    Outcome::new("exp_f5_rc_waiting", &points, vec![table], checks)
}
