//! F3 — Queue wait by job-size class under FCFS vs EASY vs conservative
//! backfill, single site at high offered load.
//!
//! Expected shape: EASY ≤ conservative ≪ FCFS for small/short jobs; waits
//! for the largest class are similar across policies (backfilling helps the
//! narrow, not the wide).

use super::{mean, Check, Outcome, Scale};
use crate::emit::Table;
use crate::setup::{calibrated_users, single_site_config};
use crate::xcheck::{replicate_crosschecked, WaitCrossCheck};
use serde::Serialize;
use tg_core::{Modality, ScenarioConfig};
use tg_des::stats::exact_quantile;
use tg_sched::SchedulerKind;
use tg_workload::ModalityProfile;

/// Testbed size and offered load (shared with R2).
pub(crate) const CORES: usize = 2048;
pub(crate) const TARGET_LOAD: f64 = 0.8;
/// The schedulers compared (shared with R2).
pub(crate) const SCHEDULERS: [SchedulerKind; 3] = [
    SchedulerKind::Fcfs,
    SchedulerKind::Easy,
    SchedulerKind::Conservative,
];

const SIZE_CLASSES: [(usize, usize, &str); 4] = [
    (1, 8, "1-8"),
    (9, 64, "9-64"),
    (65, 512, "65-512"),
    (513, usize::MAX, ">512"),
];

#[derive(Serialize)]
struct SchedResult {
    scheduler: String,
    utilization: f64,
    mean_wait_s: Vec<f64>, // per size class
    p95_wait_s: Vec<f64>,
    mean_bounded_slowdown: f64,
    /// Span-analyzer reconstruction of replication 0's mean wait from its
    /// JSONL trace, vs the accounting database.
    trace_crosscheck: WaitCrossCheck,
}

#[derive(Serialize)]
struct F3Output {
    cores: usize,
    target_load: f64,
    days: u64,
    replications: usize,
    results: Vec<SchedResult>,
}

/// The F3 testbed: one 2,048-core site with batch users offering 0.68 of
/// its capacity plus 20 interactive users, a small-short stream for
/// backfill to chew on. R2 reruns it under outages.
pub(crate) fn testbed(name: &str, days: u64, kind: SchedulerKind) -> ScenarioConfig {
    let batch_profile = ModalityProfile::default_for(Modality::BatchComputing);
    let batch_users = calibrated_users(&batch_profile, CORES, TARGET_LOAD * 0.85);
    let population = [
        (Modality::BatchComputing, batch_users),
        (Modality::Interactive, 20),
    ];
    single_site_config(name, CORES / 8, days, &population, kind)
}

/// Run F3.
pub fn run(_scale: Scale) -> Outcome {
    let (days, replications) = (21, 3);
    let mut checks = Vec::new();
    let mut results = Vec::new();
    for kind in SCHEDULERS {
        let cfg = testbed("f3", days, kind);
        let (reps, xcheck) = replicate_crosschecked(&cfg.build(), 5000, replications);
        checks.push(Check::new(
            format!("f3.trace_mean_wait_within_1pct.{}", kind.name()),
            xcheck.agrees_within(0.01),
            format!(
                "analyzer {:.1}s vs accounting {:.1}s (rel err {:.5})",
                xcheck.analyzer_mean_wait_s, xcheck.db_mean_wait_s, xcheck.rel_err
            ),
        ));
        // Pool waits across replications per size class.
        let mut waits: Vec<Vec<f64>> = vec![Vec::new(); SIZE_CLASSES.len()];
        let mut slowdowns = Vec::new();
        let mut utils = Vec::new();
        for r in &reps {
            for j in &r.output.db.jobs {
                let class = SIZE_CLASSES
                    .iter()
                    .position(|&(lo, hi, _)| j.cores >= lo && j.cores <= hi)
                    .expect("class covers all sizes");
                waits[class].push(j.wait().as_secs_f64());
                slowdowns.push(j.bounded_slowdown());
            }
            utils.push(r.output.average_utilization());
        }
        let mut mean_wait = Vec::new();
        let mut p95_wait = Vec::new();
        for class in &mut waits {
            class.sort_by(|a, b| a.partial_cmp(b).unwrap());
            mean_wait.push(mean(class));
            p95_wait.push(exact_quantile(class, 0.95).unwrap_or(0.0));
        }
        results.push(SchedResult {
            scheduler: kind.name().to_string(),
            utilization: mean(&utils),
            mean_wait_s: mean_wait,
            p95_wait_s: p95_wait,
            mean_bounded_slowdown: mean(&slowdowns),
            trace_crosscheck: xcheck,
        });
    }

    let classes = SIZE_CLASSES.map(|c| c.2);
    let mut table = Table::new(
        format!("F3: mean queue wait (s) by job-size class, {CORES} cores, load {TARGET_LOAD}"),
        &[&["scheduler", "util"][..], &classes, &["slowdown"]].concat(),
    );
    let mut p95 = Table::new(
        "F3b: P95 queue wait (s) by job-size class",
        &[&["scheduler"][..], &classes].concat(),
    );
    for r in &results {
        let waits = |v: &[f64]| v.iter().map(|w| format!("{w:.0}")).collect::<Vec<_>>();
        let util = format!("{:.2}", r.utilization);
        let slowdown = format!("{:.1}", r.mean_bounded_slowdown);
        table.row(
            [
                vec![r.scheduler.clone(), util],
                waits(&r.mean_wait_s),
                vec![slowdown],
            ]
            .concat(),
        );
        p95.row([vec![r.scheduler.clone()], waits(&r.p95_wait_s)].concat());
    }
    // Today: EASY cuts the 1–8-core class's mean wait from
    // FCFS's 288,448 s to 2,895 s (99.6×); the check asks for 10×.
    let (fcfs, easy) = (results[0].mean_wait_s[0], results[1].mean_wait_s[0]);
    checks.push(Check::new(
        "f3.backfill_cuts_small_job_wait_10x",
        easy * 10.0 < fcfs,
        format!("1-8 cores: FCFS {fcfs:.0}s vs EASY {easy:.0}s"),
    ));
    let artifact = F3Output {
        cores: CORES,
        target_load: TARGET_LOAD,
        days,
        replications,
        results,
    };
    Outcome::new("exp_f3_wait_by_sched", &artifact, vec![table, p95], checks)
}
