//! F1 — NU usage by modality across eight simulated "quarters" with science-
//! gateway adoption ramping.
//!
//! Each quarter is its own simulation window with a larger gateway
//! population (new community users arriving through portals) while the
//! traditional populations stay fixed.
//!
//! Expected shape: the gateway NU share rises across quarters; batch
//! remains the largest NU consumer but its share declines.

use super::{Check, Outcome, Scale};
use crate::emit::Table;
use serde::Serialize;
use tg_core::report::ModalityShares;
use tg_core::{Modality, ScenarioConfig};

#[derive(Serialize)]
struct F1Output {
    quarters: usize,
    gateway_users_per_quarter: Vec<usize>,
    nu_share_series: Vec<Vec<f64>>, // [modality][quarter]
}

/// Run F1.
pub fn run(scale: Scale) -> Outcome {
    let (quarters, days_per_quarter, base_users) = scale.pick((8, 21, 350), (4, 7, 150));
    let mut gw_users_series = Vec::new();
    let mut nu_share: Vec<Vec<f64>> = vec![Vec::new(); Modality::ALL.len()];
    for q in 0..quarters {
        let mut cfg = ScenarioConfig::baseline(base_users, days_per_quarter);
        // Ramp gateway adoption: 40 → 404 community users over two years.
        let gw = 40 + q * 52;
        cfg.workload.mix.users_per_modality[Modality::ScienceGateway.index()] = gw;
        cfg.name = format!("f1-q{q}");
        gw_users_series.push(gw);
        let out = cfg.build().run(scale.seed(3000 + q as u64));
        let shares = ModalityShares::compute(&out.db, &out.truth, &out.charge_policy);
        for m in Modality::ALL {
            nu_share[m.index()].push(shares.nu_share(m));
        }
    }

    let names = Modality::ALL.map(|m| m.name());
    let mut table = Table::new(
        "F1: NU share by modality per quarter (gateway adoption ramp)",
        &[&["quarter", "gw users"][..], &names[..]].concat(),
    );
    for q in 0..quarters {
        let mut row = vec![format!("Q{}", q + 1), gw_users_series[q].to_string()];
        row.extend(nu_share.iter().map(|s| format!("{:.1}%", 100.0 * s[q])));
        table.row(row);
    }
    // Today (full scale): batch holds 80.7% of Q8's NUs, next is workflow
    // at 15.3%; the gateway share grows 0.4% → 3.4% (it rises in 7 of 7
    // transitions, some by only 0.1 points, so only the ends are checked).
    let gw = &nu_share[Modality::ScienceGateway.index()];
    let batch = &nu_share[Modality::BatchComputing.index()];
    let last = quarters - 1;
    let checks = vec![
        Check::new(
            "f1.batch_stays_largest",
            nu_share.iter().all(|s| s[last] <= batch[last]),
            format!(
                "batch {:.1}% of the last quarter's NUs",
                100.0 * batch[last]
            ),
        ),
        Check::new(
            "f1.gateway_share_grows",
            gw[last] > gw[0],
            format!("{:.1}% → {:.1}%", 100.0 * gw[0], 100.0 * gw[last]),
        ),
    ];
    let artifact = F1Output {
        quarters,
        gateway_users_per_quarter: gw_users_series,
        nu_share_series: nu_share,
    };
    Outcome::new("exp_f1_quarterly_trend", &artifact, vec![table], checks)
}
