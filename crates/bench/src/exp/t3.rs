//! T3 — Metascheduler site-selection policies on a heterogeneous
//! three-site federation with unpinned jobs.
//!
//! Expected shape: shortest-ETA < least-loaded < random on mean time-to-
//! start; the data-aware policy wins on *total* turnaround once staging
//! costs matter (heavy inputs + a thin pipe to one site).

use super::{mean, mean_by, Check, Outcome, Scale};
use crate::emit::Table;
use serde::Serialize;
use tg_core::{replicate, Modality, ScenarioConfig};
use tg_des::dist::DistKind;
use tg_sched::MetaPolicy;

#[derive(Serialize)]
struct T3Result {
    policy: String,
    mean_time_to_start_s: f64,
    ci: f64,
    mean_turnaround_s: f64,
    utilization_spread: f64,
}

/// Run T3.
pub fn run(_scale: Scale) -> Outcome {
    let mut results = Vec::new();
    for policy in MetaPolicy::ALL {
        let mut cfg = ScenarioConfig::baseline(260, 21);
        // Shrink the machines so queueing (and thus placement) matters.
        // The *biggest, fastest* machine sits behind a thin WAN pipe — the
        // configuration where queue-only placement and data-aware placement
        // genuinely disagree.
        cfg.sites[0].batch_nodes = 96;
        cfg.sites[1].batch_nodes = 128;
        cfg.sites[2].batch_nodes = 320;
        cfg.sites[2].core_speed = 1.4;
        cfg.sites[2].wan_bandwidth_mbps = 25.0;
        cfg.meta = policy;
        cfg.name = format!("t3-{}", policy.name());
        // Unpinned, batch-only, with heavy inputs so data-awareness matters.
        let mix = &mut cfg.workload.mix;
        mix.users_per_modality = [0; Modality::ALL.len()];
        mix.users_per_modality[Modality::BatchComputing.index()] = 60;
        (mix.projects, mix.activity_zipf_s, mix.gateways) = (16, 0.8, 1);
        cfg.workload.rc_sites.clear();
        cfg.workload.rc_config_count = 0;
        let p = cfg.workload.profile_mut(Modality::BatchComputing);
        p.site_pinned_prob = 0.0;
        // Inputs in the tens-to-hundreds of GB: staging over the thin pipe
        // costs time on the same scale as queue waits, which is the regime
        // data-aware placement exists for.
        p.input_mb = DistKind::Pareto {
            xm: 20_000.0,
            alpha: 1.2,
        };

        let reps = replicate(&cfg.build(), 7000, 5, 0);
        let mut tts = Vec::new();
        let mut turnaround_all = Vec::new();
        let mut spreads = Vec::new();
        for r in &reps {
            let jobs = &r.output.db.jobs;
            tts.push(mean_by(jobs, |j| j.wait().as_secs_f64()));
            turnaround_all.push(mean_by(jobs, |j| {
                j.end.saturating_since(j.submit).as_secs_f64()
            }));
            let utils: Vec<f64> = r.output.site_stats.iter().map(|s| s.utilization).collect();
            let mean_u = utils.iter().sum::<f64>() / utils.len() as f64;
            let spread = utils
                .iter()
                .map(|u| (u - mean_u).abs())
                .fold(0.0f64, f64::max);
            spreads.push(spread);
        }
        let (mean_tts, ci) = tg_des::stats::ci_student_t(&tts);
        results.push(T3Result {
            policy: policy.name().to_string(),
            mean_time_to_start_s: mean_tts,
            ci,
            mean_turnaround_s: mean(&turnaround_all),
            utilization_spread: mean(&spreads),
        });
    }

    let mut table = Table::new(
        "T3: metascheduler site-selection policies (3 heterogeneous sites, heavy inputs)",
        &["policy", "time-to-start", "turnaround", "util spread"],
    );
    for r in &results {
        table.row(vec![
            r.policy.clone(),
            format!("{:.0}s ± {:.0}", r.mean_time_to_start_s, r.ci),
            format!("{:.0}s", r.mean_turnaround_s),
            format!("{:.3}", r.utilization_spread),
        ]);
    }
    // Today: data-aware turnaround 16,927 s vs eta's 20,628 s
    // (18% lower). The eta ≤ least-loaded ≤ random ordering is not checked:
    // eta and least-loaded sit 114 s apart, well inside their ± 642 s CIs.
    let by = |name: &str| {
        results
            .iter()
            .find(|r| r.policy == name)
            .expect("policy present")
    };
    let (data, eta) = (
        by("data-aware").mean_turnaround_s,
        by("eta").mean_turnaround_s,
    );
    let check = Check::new(
        "t3.data_aware_wins_turnaround",
        data < eta,
        format!("data-aware {data:.0}s vs eta {eta:.0}s"),
    );
    Outcome::new("exp_t3_metasched", &results, vec![table], vec![check])
}
