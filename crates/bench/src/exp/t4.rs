//! T4 — End-to-end mixed workload on a hybrid federation:
//! RC-aware vs RC-blind vs GPP-only.
//!
//! The RC site carries a batch/interactive background plus a heavy stream
//! of hardware-accelerable tasks. GPP-only removes the fabric entirely, so
//! accelerable tasks run as software jobs through the batch queue.
//!
//! Expected shape: on RC-task turnaround, aware < blind ≪ GPP-only. The
//! aware-vs-blind gap is the setup pipeline paid on every non-reused
//! placement; the vs-GPP gap is the kernel speedup itself (plus queueing
//! once the software pool saturates).

use super::{mean, mean_by, Check, Outcome, Scale};
use crate::emit::Table;
use crate::setup::{rc_only_config, rc_tasks_per_day_for_load, synthetic_library};
use serde::Serialize;
use tg_core::{replicate, Modality};
use tg_des::SimDuration;
use tg_sched::RcPolicy;

#[derive(Serialize)]
struct T4Result {
    variant: String,
    rc_mean_turnaround_s: f64,
    ci: f64,
    rc_throughput_per_hour: f64,
    hw_fraction: f64,
    reuse_fraction: f64,
    batch_mean_wait_s: f64,
}

/// Run T4.
pub fn run(_scale: Scale) -> Outcome {
    let days = 2;
    let tasks_per_day = rc_tasks_per_day_for_load(32, 8, 0.5);
    let variants = [
        ("rc-aware", 32, RcPolicy::AWARE),
        ("rc-blind", 32, RcPolicy::BLIND),
        ("gpp-only", 0, RcPolicy::AWARE),
    ];
    let mut results = Vec::new();
    for (name, rc_nodes, policy) in variants {
        let mut cfg = rc_only_config(rc_nodes.max(1), 8, tasks_per_day, days, 12);
        // gpp-only: strip the fabric but keep the workload identical.
        cfg.sites[1].rc_nodes = rc_nodes;
        cfg.rc_policy = policy;
        cfg.library = Some(synthetic_library(12, SimDuration::from_secs(15), 1.0));
        // A light conventional background on the same machines.
        cfg.workload.mix.users_per_modality[Modality::BatchComputing.index()] = 6;
        cfg.workload.mix.users_per_modality[Modality::Interactive.index()] = 15;
        cfg.workload
            .profile_mut(Modality::BatchComputing)
            .cores_weights = vec![(8, 40.0), (16, 30.0), (32, 20.0), (64, 10.0)];
        cfg.name = format!("t4-{name}");
        let reps = replicate(&cfg.build(), 12_000, 3, 0);
        let mut turns = Vec::new();
        let mut thru = Vec::new();
        let mut hw = Vec::new();
        let mut reuse = Vec::new();
        let mut batch_wait = Vec::new();
        for r in &reps {
            let out = &r.output;
            let of = |m: Modality| -> Vec<_> {
                out.db
                    .jobs
                    .iter()
                    .filter(|j| out.truth_of(j.job) == Some(m))
                    .collect()
            };
            let rc_jobs = of(Modality::RcAccelerated);
            let n = rc_jobs.len().max(1) as f64;
            turns.push(mean_by(&rc_jobs, |j| {
                j.end.saturating_since(j.submit).as_secs_f64()
            }));
            thru.push(n / out.end.as_hours_f64());
            hw.push(rc_jobs.iter().filter(|j| j.used_hw).count() as f64 / n);
            let stats = out.site_stats[1].rc_stats;
            let placements = (stats.reuses + stats.reconfigs).max(1);
            reuse.push(stats.reuses as f64 / placements as f64);
            batch_wait.push(mean_by(&of(Modality::BatchComputing), |j| {
                j.wait().as_secs_f64()
            }));
        }
        let (mean_turn, ci) = tg_des::stats::ci_student_t(&turns);
        results.push(T4Result {
            variant: name.to_string(),
            rc_mean_turnaround_s: mean_turn,
            ci,
            rc_throughput_per_hour: mean(&thru),
            hw_fraction: mean(&hw),
            reuse_fraction: mean(&reuse),
            batch_mean_wait_s: mean(&batch_wait),
        });
    }

    let mut table = Table::new(
        format!(
            "T4: hybrid-site mixed workload (32 RC nodes, {tasks_per_day:.0} accelerable tasks/day)"
        ),
        &[
            "variant",
            "rc turnaround",
            "rc/hour",
            "hw%",
            "reuse%",
            "batch wait",
        ],
    );
    for r in &results {
        table.row(vec![
            r.variant.clone(),
            format!("{:.0}s ± {:.0}", r.rc_mean_turnaround_s, r.ci),
            format!("{:.0}", r.rc_throughput_per_hour),
            format!("{:.0}%", 100.0 * r.hw_fraction),
            format!("{:.0}%", 100.0 * r.reuse_fraction),
            format!("{:.0}s", r.batch_mean_wait_s),
        ]);
    }
    // Today: RC-task turnaround aware 77 s ± 1, blind 88 s ± 1,
    // gpp-only 1,201 s ± 12 — the blind gap is 11 s against CIs of 1 s.
    let turn = |i: usize| results[i].rc_mean_turnaround_s;
    let check = Check::new(
        "t4.aware_below_blind_below_gpp",
        turn(0) < turn(1) && turn(1) * 5.0 < turn(2),
        format!(
            "aware {:.0}s, blind {:.0}s, gpp-only {:.0}s",
            turn(0),
            turn(1),
            turn(2)
        ),
    );
    Outcome::new("exp_t4_rc_endtoend", &results, vec![table], vec![check])
}
