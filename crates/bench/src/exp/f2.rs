//! F2 — Job-size (core count) CDF per modality.
//!
//! Pure workload characterization (no queueing needed): generate the
//! baseline population's jobs and report per-modality core-count quantiles
//! and CDF points.
//!
//! Expected shape: interactive/gateway ≪ batch; the extreme tail (hero
//! runs) exists only in batch; ensemble members are narrow but arrive in
//! bulk.

use super::{Check, Outcome, Scale};
use crate::emit::Table;
use serde::Serialize;
use tg_core::Modality;
use tg_des::stats::exact_quantile;
use tg_des::RngFactory;
use tg_workload::{GeneratorConfig, WorkloadGenerator};

#[derive(Serialize)]
struct F2Output {
    quantiles: Vec<f64>,
    per_modality_cores: Vec<Vec<f64>>, // [modality][quantile]
    cdf_points: Vec<Vec<(f64, f64)>>,  // [modality][(cores, F)]
}

/// Run F2.
pub fn run(scale: Scale) -> Outcome {
    let (users, days) = scale.pick((600, 30), (200, 7));
    let cfg = GeneratorConfig::baseline(users, days, 3);
    let workload = WorkloadGenerator::new(cfg).generate(&RngFactory::new(scale.seed(4000)));

    let qs = [0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0];
    let mut table = Table::new(
        "F2: job-size (cores) quantiles per modality",
        &[
            "modality", "jobs", "P10", "P25", "P50", "P75", "P90", "P99", "max",
        ],
    );
    let mut per_modality = Vec::new();
    let mut cdfs = Vec::new();
    for m in Modality::ALL {
        let mut cores: Vec<f64> = workload.jobs_of(m).map(|j| j.cores as f64).collect();
        cores.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let row_q: Vec<f64> = qs
            .iter()
            .map(|&q| exact_quantile(&cores, q).unwrap_or(0.0))
            .collect();
        let mut row = vec![m.name().to_string(), cores.len().to_string()];
        row.extend(row_q.iter().map(|v| format!("{v:.0}")));
        table.row(row);
        // Compact CDF: distinct core values with cumulative fraction.
        let n = cores.len().max(1) as f64;
        let mut cdf: Vec<(f64, f64)> = Vec::new();
        for (k, &v) in cores.iter().enumerate() {
            match cdf.last_mut() {
                Some(last) if last.0 == v => last.1 = (k + 1) as f64 / n,
                _ => cdf.push((v, (k + 1) as f64 / n)),
            }
        }
        per_modality.push(row_q);
        cdfs.push(cdf);
    }

    // Today (full scale): batch's P99 is 4096 cores; no other modality's
    // largest job exceeds 64 (workflow).
    let batch_p99 = per_modality[Modality::BatchComputing.index()][5];
    let widest_other = Modality::ALL
        .iter()
        .filter(|&&m| m != Modality::BatchComputing)
        .map(|m| per_modality[m.index()][6])
        .fold(0.0, f64::max);
    let check = Check::new(
        "f2.hero_tail_only_in_batch",
        batch_p99 > widest_other,
        format!("batch P99 {batch_p99:.0} cores vs {widest_other:.0} for any other job"),
    );
    let artifact = F2Output {
        quantiles: qs.to_vec(),
        per_modality_cores: per_modality,
        cdf_points: cdfs,
    };
    Outcome::new("exp_f2_jobsize_cdf", &artifact, vec![table], vec![check])
}
